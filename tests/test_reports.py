"""Identity reports and the package's record types: the values ``compare``
records, and the immutable records every layer passes around."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import bozon
from bozon import (
    CombinatorialMap,
    CouplingAssignment,
    DefectSet,
    IdentityReport,
    QuadDimerGraph,
    ReductionResult,
    base_couplings,
    builtin,
    compare,
    explicit_instance,
    graph_context,
    polygon_weights,
    reduce_plus,
)
from bozon.dimer import KasteleynOrientation, QuadRecord
from bozon.errors import LengthMismatch
from bozon.instances import Instance
from bozon.polygon import PolygonWeights


@pytest.mark.parametrize(
    "lhs, rhs, abs_err, rel_err, passed",
    [
        (3.0, 2.0, 1.0, 1 / 3, False),  # relative: the larger side is 3
        (2.0**20 - 2.0**-20, 2.0**20, 2.0**-20, 2.0**-40, True),
        (-4.0, -3.0, 1.0, 0.25, False),
        (3 + 4j, 0.0, 5.0, 1.0, False),  # complex sides, by modulus
        (2.0**-30, 2.0**-31, 2.0**-31, 0.5, True),  # both below 1: the floor
        (0.0, 0.0, 0.0, 0.0, True),  # a true zero on both sides
    ],
)
def test_compare_records_abs_and_rel_err(lhs, rhs, abs_err, rel_err, passed):
    """abs_err is |lhs - rhs| and rel_err is abs_err / max(|lhs|, |rhs|),
    exactly; below 1 the verdict takes an absolute floor of tol, while
    rel_err stays relative."""
    rep = compare("pinned", lhs, rhs, tol=1e-9)
    assert (rep.abs_err, rep.rel_err, rep.passed) == (abs_err, rel_err, passed)
    d = rep.to_dict()
    assert (d["abs_err"], d["rel_err"], d["pass"]) == (abs_err, rel_err, passed)


def one_of_each_record() -> list:
    """An instance of each of the ten record types."""
    m = builtin("c4")
    j = base_couplings([0.3, 0.7, 1.1, 1.3])
    gq = graph_context(m)
    return [
        m,
        gq,
        gq.quads[0],
        gq.orientation,
        j,
        DefectSet.empty(),
        polygon_weights(m, j),
        reduce_plus(m, j, DefectSet.empty(), 0),
        explicit_instance(m, j),
        compare("z", 1.0, 1.0, extra={"k": 1}),
    ]


def test_one_of_each_record_covers_the_ten_types():
    types = {type(r) for r in one_of_each_record()}
    assert types == {
        CombinatorialMap, QuadDimerGraph, QuadRecord, KasteleynOrientation,
        CouplingAssignment, DefectSet, PolygonWeights, ReductionResult,
        Instance, IdentityReport,
    }


@pytest.mark.parametrize("record", one_of_each_record(), ids=lambda r: type(r).__name__)
def test_assigning_a_record_field_raises(record):
    for field in type(record)._fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.unknown = 0


def test_an_equal_copy_of_g_q_is_equal_and_hashes_alike():
    gq = graph_context(builtin("k3"))
    copy = QuadDimerGraph(**{f: getattr(gq, f) for f in gq._fields})
    assert copy is not gq and copy == gq and hash(copy) == hash(gq)
    assert copy != graph_context(builtin("c4"))
    assert gq != gq.map and gq.map != gq.primal


def test_coupling_lengths_must_match():
    with pytest.raises(LengthMismatch):
        CouplingAssignment((0.5, 0.5), (False,))
    with pytest.raises(LengthMismatch):
        CouplingAssignment(real=(0.5,), half_pi=())
    j = CouplingAssignment((0.5,), (True,))
    assert (j.real, j.half_pi, j.phase_power) == ((0.5,), (True,), 1)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter (no site packages) that imports bozon.cli has
    not loaded dataclasses, inspect or csv."""
    src = str(Path(bozon.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import bozon.cli; "
        "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
