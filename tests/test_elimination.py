"""The sparse Kasteleyn elimination: the determinant against numpy's dense
LU (an oracle that only the tests import) and against the sign-calibrated
matching sweep, hand-built matrices that need row exchanges or are
singular, and a run of the package with numpy made unimportable."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bozon
import bozon.dimer
from bozon import (
    DefectSet,
    Instance,
    base_couplings,
    brute_force_dimer_Z,
    builtin,
    calibration_sign,
    dimer_Z_det,
    graph_context,
    kasteleyn_orientation,
    modify_couplings,
    instance_reports,
    nu_from_couplings,
)
from bozon.cli import main
from bozon.dimer import _det, all_ones
from bozon.errors import SingularMatrix, TooLarge

from conftest import kasteleyn_matrix, random_j

ORACLE_MAPS = (
    "k3", "c4", "grid_2_3", "grid_3_3", "grid_3_4", "grid_2_8", "grid_3_5",
    "grid_4_4", "grid_5_5", "wheel_4", "wheel_5", "wheel_8", "wheel_10", "wheel_12",
)
REL = 1e-13


def _weight_cases(m, gq, rng):
    """(label, weights) pairs: plain random couplings, the same with order
    and disorder defects, a third of the weights zeroed, and couplings
    near 1e-3 and near 8."""
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({0}, {m.edge_count - 1})
    zeroed = list(nu_from_couplings(gq, j))
    for k in range(0, gq.edge_count, 3):
        zeroed[k] = 0.0
    return [
        ("random", nu_from_couplings(gq, j)),
        ("defects", nu_from_couplings(gq, modify_couplings(j, d))),
        ("zeros", tuple(zeroed)),
        ("weak", nu_from_couplings(gq, base_couplings(random_j(rng, m.edge_count, 5e-4, 2e-3)))),
        ("strong", nu_from_couplings(gq, base_couplings(random_j(rng, m.edge_count, 7.5, 8.5)))),
    ]


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_determinant_matches_numpy(name, rng):
    np = pytest.importorskip("numpy")
    m = builtin(name)
    gq = graph_context(m)

    def oracle(weights):
        return float(np.linalg.det(np.array(kasteleyn_matrix(gq, weights, gq.orientation))))

    for label, w in _weight_cases(m, gq, rng):
        det = dimer_Z_det(gq, w, gq.orientation)
        want = oracle(w)
        # signed weights can cancel: bound them by the determinant of
        # |weights|, the sum of the matchings' absolute weights
        scale = abs(want) if min(w) >= 0 else abs(oracle([abs(x) for x in w]))
        assert abs(det - want) <= REL * scale, (name, label, det, want)


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_calibrated_determinant_matches_sweep(name, rng):
    m = builtin(name)
    gq = graph_context(m)
    for label, w in _weight_cases(m, gq, rng):
        try:
            sweep = brute_force_dimer_Z(gq, w)
        except TooLarge:
            pytest.skip(f"{name}: G_Q is past the matching sweep's state cap")
        det = gq.sign * dimer_Z_det(gq, w, gq.orientation)
        scale = brute_force_dimer_Z(gq, [abs(x) for x in w])
        assert abs(det - sweep) <= 1e-12 * scale, (name, label, det, sweep)


def test_row_exchanges_and_permutation_sign():
    assert _det([{1: 1.0}, {0: 1.0}]) == -1.0
    # a 3-cycle is even, a 4-cycle odd
    assert _det([{1: 2.0}, {2: 3.0}, {0: 5.0}]) == 30.0
    assert _det([{1: 1.0}, {2: 1.0}, {3: 1.0}, {0: 1.0}]) == -1.0
    # det = eps; pivoting on eps (the first and a shortest row) swamps the
    # 1s and gives 0
    eps = 1e-17
    rows = [{0: eps, 1: 1.0}, {0: 1.0, 1: 1.0, 2: 1.0}, {0: 1.0, 2: 1.0}]
    assert _det(rows) == pytest.approx(eps, rel=1e-12, abs=0)


def test_singular_matrix_gives_exact_zero():
    assert _det([{0: 1.0, 1: 2.0}, {0: 2.0, 1: 4.0}]) == 0.0
    assert _det([{0: 1.0}, {0: 3.0}]) == 0.0  # column 1 is empty
    assert _det([{0: 0.0, 1: 0.0}, {0: 1.0, 1: 1.0}]) == 0.0


def _dead_vertex(gq, weights):
    """The weights with every edge at one black vertex zeroed: no perfect
    matching survives, so the Kasteleyn matrix has a zero row."""
    black = gq.blacks[0]
    out = list(weights)
    for e in range(gq.edge_count):
        if black in gq.map.edge_endpoints(e):
            out[e] = 0.0
    return tuple(out)


def test_singular_kasteleyn_matrix_raises(monkeypatch, rng):
    """A vanishing dimer sum of nu(J) raises one SingularMatrix, on either
    route: in theorem1 before any spin sum, and in the corollary's dimer
    ratio before its numerator."""
    m = builtin("grid_2_3")
    gq = graph_context(m)
    assert dimer_Z_det(gq, _dead_vertex(gq, all_ones(gq)), gq.orientation) == 0.0

    real_nu = bozon.dimer.nu_from_couplings
    numerators = []

    def dead(g, j):
        numerators.append(any(j.half_pi))
        return _dead_vertex(g, real_nu(g, j))

    def no_spin_sum(*args, **kwargs):
        raise AssertionError("a spin sum ran")

    monkeypatch.setattr(bozon.instances, "nu_from_couplings", dead)
    monkeypatch.setattr(bozon.instances, "partition_function", no_spin_sum)
    j = base_couplings(random_j(rng, m.edge_count))
    d = DefectSet.from_edge_sets({0}, set())
    with pytest.raises(SingularMatrix, match="vanished"):
        instance_reports("theorem1", Instance(m, j, d))
    with pytest.raises(SingularMatrix, match="vanished"):
        instance_reports("corollary", Instance(m, j, d))  # grid_2_3 takes the brute route
    assert numerators == [False, False]


@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_leg_sign_is_the_all_ones_determinant_sign(name):
    """calibration_sign reads the legs' matching term; the reference is
    the sign of the determinant at all-ones weights, whose matching sum
    is a positive integer.  On the map and its dual, rooted at every face
    up to 5."""
    m = builtin(name)
    for carrier in (m, m.dual):
        gq = graph_context(carrier)
        for root in range(min(6, gq.map.face_count)):
            o = kasteleyn_orientation(gq, root)
            det = dimer_Z_det(gq, all_ones(gq), o)
            assert det != 0.0
            assert calibration_sign(gq, o) == (1 if det > 0 else -1), (carrier, root)


NO_NUMPY_RUN = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from bozon.cli import main
out = sys.argv[1]
assert main(["verify", "--suite", "all", "--random", "100", "--seed", "1", "--out", out + "/report.json"]) == 0
assert main(["export", "--builtin", "grid_3_3", "--out", out]) == 0
"""


def _src_env() -> dict[str, str]:
    src = str(Path(bozon.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_runs_without_numpy(tmp_path, capsys):
    (tmp_path / "bare").mkdir()
    subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RUN, str(tmp_path / "bare")],
        env=_src_env(), check=True, capture_output=True,
    )
    assert main(["verify", "--suite", "all", "--random", "100", "--seed", "1",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert main(["export", "--builtin", "grid_3_3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("report.json", "grid_3_3.gq.json"):
        assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_importing_the_cli_leaves_numpy_unloaded():
    probe = "import sys, bozon.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_src_env(), check=True, capture_output=True, text=True
    )
    assert out.stdout.strip() == "False"
