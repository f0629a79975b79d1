"""Command-line behavior: exit codes, determinism, and output shapes."""

from __future__ import annotations

import json
import tracemalloc
import weakref

import pytest

import bozon.cli
import bozon.suites
from bozon import builtin, uniform_couplings
from bozon.cli import main, records_to_csv
from bozon.errors import TooLarge
from bozon.serialize import canonical_json, defect_paths_from_dict, map_from_dict
from bozon.suites import (
    SUITE_NAMES,
    Edge,
    explicit_instance,
    run_explicit,
    run_suite,
    suite_summary,
)
from conftest import clear_caches


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c4_file(tmp_path, capsys):
    path = tmp_path / "c4.json"
    code, out, _ = run_cli(capsys, "builtin", "c4")
    assert code == 0
    path.write_text(out)
    return str(path)


def test_builtin_listing(capsys):
    code, out, _ = run_cli(capsys, "builtin")
    assert code == 0
    assert "k3" in out and "grid_3_3" in out


def test_builtin_graph_json(capsys):
    code, out, _ = run_cli(capsys, "builtin", "wheel_4")
    obj = json.loads(out)
    assert code == 0
    assert len(obj["vertices"]) == 5
    assert len(obj["edges"]) == 8


def test_builtin_out_file_is_compact_and_loads(tmp_path, capsys):
    path = tmp_path / "k3.json"
    code, out, _ = run_cli(capsys, "builtin", "k3", "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    obj = json.loads(text)
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    m = map_from_dict(obj)
    assert (m.vertex_count, m.edge_count) == (3, 3)
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem1", "--graph", str(path))
    assert code == 0
    assert json.loads(out)["summary"]["pass"] is True


def test_builtin_unknown_exits_2(capsys):
    code, _, err = run_cli(capsys, "builtin", "dodecahedron")
    assert code == 2
    assert "UnknownGraph" in err


def test_verify_explicit_graph(capsys, c4_file):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "theorem1", "--graph", c4_file, "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["mode"] == "explicit"
    assert payload["summary"]["pass"] is True
    assert payload["records"][0]["graph"] == "c4"
    assert "0 failed" in err


def test_verify_random_all(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--random", "5", "--seed", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["mode"] == "random"
    assert payload["summary"]["failed"] == 0


def test_verify_is_byte_identical(capsys):
    args = ("verify", "--suite", "pairpolygon", "--random", "4", "--seed", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_violation_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "theorem1", "--random", "2", "--tol", "0"
    )
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 2


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_rejects_a_tol_that_is_not_finite_and_nonnegative(capsys, tol):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "theorem1", "--random", "3", "--tol", tol
    )
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_verify_rejects_both_modes(capsys, c4_file):
    code, _, err = run_cli(
        capsys, "verify", "--graph", c4_file, "--random", "3"
    )
    assert code == 2
    assert "mutually exclusive" in err


def test_verify_requires_a_mode(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "theorem1")
    assert code == 2
    assert "--graph" in err


def test_verify_malformed_rotation_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"vertices": [{"id": 0, "darts": [0, 99]}],'
        ' "edges": [{"id": 0, "darts": [0, 1]}]}'
    )
    code, _, err = run_cli(capsys, "verify", "--suite", "theorem1", "--graph", str(bad))
    assert code == 2
    assert "MalformedRotation" in err


@pytest.mark.parametrize(
    "argv",
    [
        *(["verify", "--suite", suite] for suite in (
            "theorem1", "pairpolygon", "bipartitedimer", "duality", "corollary",
            "boundary", "magnetization", "all",
        )),
        ["export", "--out", "exported"],
    ],
)
def test_an_edgeless_map_exits_2_without_a_traceback(tmp_path, monkeypatch, capsys, argv):
    """The one-vertex map is valid (boundary reductions make it), but it has
    no G_Q and no face to reduce: every command refuses it as input."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "edgeless.json").write_text('{"vertices": [{"id": 0, "darts": []}], "edges": []}')
    code, out, err = run_cli(capsys, *argv, "--graph", "edgeless.json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "exported").exists()


def test_verify_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, "verify", "--graph", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_verify_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--graph", "/nonexistent/g.json")
    assert code == 2


def builtin_file(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    assert run_cli(capsys, "builtin", name, "--out", str(path))[0] == 0
    return str(path)


@pytest.mark.parametrize(
    "suite, name",
    [("all", "grid_3_4"), ("theorem1", "grid_5_5"), ("bipartitedimer", "wheel_8")],
)
def test_verify_maps_past_the_old_size_caps(tmp_path, capsys, suite, name):
    """grid_3_4's grouped count holds 17,691 sweep states, grid_5_5 has
    25 vertices and 40 edges, and wheel_8's grouped count covers 2,208
    pairs on a 64-vertex G_Q; all fit STATE_CAP."""
    graph = builtin_file(tmp_path, capsys, name)
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--graph", graph)
    assert code == 0
    assert json.loads(out)["summary"]["pass"]


def test_verify_too_large_exits_2(tmp_path, capsys):
    """grid_17_17's spin sweep needs 2^17 states, past STATE_CAP."""
    graph = builtin_file(tmp_path, capsys, "grid_17_17")
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--graph", graph)
    assert code == 2
    assert out == ""
    assert "TooLarge" in err and "Traceback" not in err


def test_verify_a_bridged_map_exits_2_with_its_report(tmp_path, capsys):
    """A 3-vertex path (two bridges) has no G_Q: the suites that read a
    dimer sum (corollary too, which without defects checks 1 = 1 on each
    edge) record a typed BridgeUnsupported error, the others run, and the
    exit code is the input error's."""
    graph = tmp_path / "path3.json"
    graph.write_text(json.dumps({
        "vertices": [{"id": 0, "darts": [0, 2]}, {"id": 1, "darts": [1]},
                     {"id": 2, "darts": [3]}],
        "edges": [{"id": 0, "darts": [0, 1]}, {"id": 1, "darts": [2, 3]}],
    }))
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--graph", str(graph))
    assert code == 2
    assert "error: 4 records carry an error entry (4 BridgeUnsupported)" in err
    assert "Traceback" not in err
    records = json.loads(out)["records"]
    errors = [(r["suite"], r["error"].split(":")[0]) for r in records if "error" in r]
    assert errors == [("theorem1", "BridgeUnsupported")] + [
        ("bipartitedimer", "BridgeUnsupported")
    ] * 2 + [("corollary", "BridgeUnsupported")]
    assert all(r["pass"] for r in records if "error" not in r)


def _k3_with(k3, kind, value):
    """(graph, couplings, defects) JSON texts for k3 with one malformed
    value: a coupling J, a dart, or the defects object."""
    couplings = {"edges": [{"id": e, "J": 1.0} for e in range(3)]}
    defects = {}
    if kind == "J":
        couplings["edges"][0]["J"] = value
    elif kind == "dart":
        k3["vertices"][0]["darts"][0] = value
    else:
        defects = value
    texts = [json.dumps(obj) for obj in (k3, couplings, defects)]
    if value == 1e400:  # json.dumps would write Infinity
        texts[1] = texts[1].replace("Infinity", "1e400")
    return texts


@pytest.mark.parametrize(
    "kind, value, typed",
    [
        ("J", "abc", "NonPositiveCoupling"),
        ("J", None, "NonPositiveCoupling"),
        ("J", "inf", "NonPositiveCoupling"),
        ("J", 1e400, "NonPositiveCoupling"),
        ("J", True, "NonPositiveCoupling"),  # float() would read 1.0
        ("J", "0.5", "NonPositiveCoupling"),  # float() would parse it
        ("dart", "x", "MalformedRotation"),
        ("dart", 0.5, "MalformedRotation"),  # int() would read dart 0
        ("defects", {"order_paths": 5}, "MalformedRotation"),
        ("defects", {"order_paths": [{"endpoints": [0, 1], "edges": [0.5]}]}, "MalformedRotation"),
    ],
    ids=["J-abc", "J-null", "J-inf-text", "J-1e400", "J-true", "J-0.5-text", "dart-x", "dart-0.5", "order-5", "edge-0.5"],
)
def test_verify_malformed_input_values_exit_2(tmp_path, capsys, kind, value, typed):
    """A malformed or non-finite value in a user file is a typed input
    error: exit 2, no report, no traceback.  A J that reads as inf would
    otherwise put Infinity, which is not strict JSON, into the report."""
    k3 = json.loads(run_cli(capsys, "builtin", "k3")[1])
    paths = []
    for name, text in zip(("graph", "couplings", "defects"), _k3_with(k3, kind, value)):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths += [f"--{name}", str(path)]
    code, out, err = run_cli(capsys, "verify", "--suite", "theorem1", *paths)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {typed}: ") and "Traceback" not in err


def test_verify_explicit_magnetization_exits_2(capsys, c4_file):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "magnetization", "--graph", c4_file
    )
    assert code == 2


def test_verify_all_skips_corollary_for_disorder_paths(tmp_path, capsys, c4_file):
    defects = tmp_path / "disorder.json"
    defects.write_text(
        json.dumps({"disorder_paths": [{"endpoints": [0, 1], "edges": [0]}]})
    )
    code, out, _ = run_cli(
        capsys, "verify", "--graph", c4_file, "--defects", str(defects)
    )
    assert code == 0
    suites = {r["suite"] for r in json.loads(out)["records"]}
    assert "theorem1" in suites and "corollary" not in suites
    code, _, err = run_cli(
        capsys, "verify", "--suite", "corollary", "--graph", c4_file,
        "--defects", str(defects),
    )
    assert code == 2
    assert "order-only" in err


def test_verify_boundary_without_a_clear_face_exits_2(tmp_path, capsys, c4_file):
    """The order edge lies on both faces of c4: an input problem, not a
    failed identity, while --suite all skips the boundary suite."""
    defects = tmp_path / "order.json"
    defects.write_text(
        json.dumps({"order_paths": [{"endpoints": [0, 1], "edges": [0]}],
                    "disorder_paths": []})
    )
    code, out, err = run_cli(
        capsys, "verify", "--suite", "boundary", "--graph", c4_file,
        "--defects", str(defects),
    )
    assert (code, out) == (2, "")
    assert "face clear of defects" in err
    code, out, _ = run_cli(
        capsys, "verify", "--graph", c4_file, "--defects", str(defects)
    )
    assert code == 0
    assert "boundary" not in {r["suite"] for r in json.loads(out)["records"]}


def test_verify_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "theorem1", "--random", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    assert {"suite", "graph", "check", "lhs_re", "rhs_re", "check_pass"} <= set(header)
    assert len(lines) == 1 + 2 * 3  # three checks per theorem record


def test_verify_out_file(tmp_path, capsys, c4_file):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "duality", "--graph", c4_file,
        "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["summary"]["pass"]


def test_verify_overflow_exits_1_with_report(tmp_path, capsys):
    """grid_3_3 at J=400: every instance record carries an error entry (a
    float overflow, a non-finite side or a dual coupling that underflows)
    and no check entry fails, so verify writes its report and exits 2 with
    one error line."""
    graph = tmp_path / "g33.json"
    assert run_cli(capsys, "builtin", "grid_3_3", "--out", str(graph))[0] == 0
    couplings = tmp_path / "j.json"
    couplings.write_text(
        json.dumps({"edges": [{"id": e, "J": 400.0} for e in range(12)]})
    )
    defects = tmp_path / "d.json"
    defects.write_text(
        json.dumps({"order_paths": [{"endpoints": [0, 8], "edges": [0, 1, 8, 11]}]})
    )
    code, out, err = run_cli(
        capsys, "verify", "--suite", "all", "--graph", str(graph),
        "--couplings", str(couplings), "--defects", str(defects),
    )
    assert code == 2
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: 6 records carry an error entry"
        " (1 CouplingUnderflow, 2 NonFiniteValue, 3 OverflowError)"
    ]

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    records = json.loads(out, parse_constant=reject)["records"]
    errors = {r["suite"]: r["error"] for r in records if "error" in r}
    for suite in ("theorem1", "pairpolygon", "bipartitedimer"):
        assert errors[suite].startswith("OverflowError")


def test_export_writes_gq(tmp_path, capsys):
    out_dir = tmp_path / "exported"
    code, _, err = run_cli(capsys, "export", "--builtin", "k3", "--out", str(out_dir))
    assert code == 0
    gq = json.loads((out_dir / "k3.gq.json").read_text())
    assert len(gq["vertices"]) == 12
    assert [p.name for p in out_dir.iterdir()] == ["k3.gq.json"]
    assert err.count("wrote") == 1


@pytest.mark.parametrize("extra", (["--svg"], ["--defects", "d.json"]))
def test_export_has_no_drawing_options(extra, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--builtin", "k3", "--out", str(tmp_path), *extra])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_export_with_couplings_weights(tmp_path, capsys):
    couplings = tmp_path / "j.json"
    couplings.write_text(
        json.dumps({"edges": [{"id": e, "J": 0.5} for e in range(3)]})
    )
    out_dir = tmp_path / "exported"
    code, _, _ = run_cli(
        capsys, "export", "--builtin", "k3", "--couplings", str(couplings),
        "--out", str(out_dir),
    )
    assert code == 0
    gq = json.loads((out_dir / "k3.gq.json").read_text())
    assert all("weight" in e for e in gq["edges"])


def test_export_requires_one_source(capsys):
    code, _, err = run_cli(capsys, "export")
    assert code == 2
    assert "exactly one" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ------------------------------------------------- the streamed JSON report


def _whole_document(config, records):
    """The report as one canonical_json call over the whole record list."""
    summary = suite_summary(records)
    return canonical_json({"config": config, "records": records, "summary": summary})


def _verify_both_ways(tmp_path, capsys, *argv):
    """verify's report through --out, then through stdout."""
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", *argv, "--out", str(out_path))
    assert (code, out) == (0, "")
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    return out_path.read_text(), out


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("suite", SUITE_NAMES + ("all",))
def test_the_streamed_report_is_the_whole_document(tmp_path, capsys, suite, seed):
    """Encoding the records one by one gives the bytes that encoding the
    whole document at once gives, in a file and on stdout."""
    argv = ("--suite", suite, "--random", "3", "--seed", str(seed))
    config = {"command": "verify", "suite": suite, "seed": seed, "tol": 1e-9,
              "format": "json", "mode": "random", "count": 3}
    expected = _whole_document(config, run_suite(suite, count=3, seed=seed))
    assert _verify_both_ways(tmp_path, capsys, *argv) == (expected, expected)


def test_the_streamed_explicit_report_is_the_whole_document(tmp_path, capsys):
    graph = builtin_file(tmp_path, capsys, "grid_3_3")
    defects = tmp_path / "defects.json"
    defects.write_text(json.dumps({
        "order_paths": [{"endpoints": [0, 2], "edges": [0, 1]}],
        "disorder_paths": [{"endpoints": [3, 4], "edges": [10]}],
    }))
    argv = ("--suite", "all", "--graph", graph, "--defects", str(defects), "--seed", "7")
    config = {"command": "verify", "suite": "all", "seed": 7, "tol": 1e-9,
              "format": "json", "mode": "explicit", "graph": graph,
              "couplings": None, "defects": str(defects)}
    m = builtin("grid_3_3")
    inst = explicit_instance(
        m, uniform_couplings(m.edge_count, 1.0),
        *defect_paths_from_dict(json.loads(defects.read_text())),
        name="grid_3_3", seed=7,
    )
    records = run_explicit("all", inst)
    assert {r["suite"] for r in records} == {"theorem1", "pairpolygon", "bipartitedimer", "duality"}
    expected = _whole_document(config, records)
    assert _verify_both_ways(tmp_path, capsys, *argv) == (expected, expected)


def test_the_csv_report_is_the_record_list_as_csv(capsys):
    argv = ("verify", "--suite", "all", "--random", "3", "--seed", "1", "--format", "csv")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == records_to_csv(run_suite("all", count=3, seed=1))


class _Record(dict):
    """A dict that a weak reference can watch."""


def test_verify_holds_no_record_it_has_encoded(tmp_path, capsys, monkeypatch):
    """Each record is dead by the time the next one is asked for; the
    summary and the bridged count are taken as the records go by."""
    refs = []

    def make(i):
        rec = _Record(suite="theorem1", index=i, checks=[], **{"pass": i % 3 != 1})
        if i == 4:
            rec["error"] = "BridgeUnsupported: a bridge"
        refs.append(weakref.ref(rec))
        return rec

    def stream(*args, **kwargs):
        for i in range(6):
            assert all(ref() is None for ref in refs), f"a record before {i} lives"
            yield make(i)

    monkeypatch.setattr(bozon.cli, "iter_suite", stream)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--random", "6", "--out", str(out_path)
    )
    assert (code, out) == (2, "")
    assert "6 records, 2 failed" in err
    assert "1 records carry an error entry (1 BridgeUnsupported)" in err
    summary = json.loads(out_path.read_text())["summary"]
    assert summary == {"total": 6, "failed": 2, "failed_indices": [1, 4], "pass": False}


def test_verify_peak_memory_is_a_few_reports(tmp_path):
    """The traced peak of a cold 200-instance gate stays below five times
    its report.  Encoding the whole record list at once peaked at about
    ten times."""
    clear_caches()
    out_path = tmp_path / "report.json"
    argv = ["verify", "--suite", "all", "--random", "200", "--seed", "1", "--out", str(out_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * out_path.stat().st_size


@pytest.mark.parametrize("to_file", [True, False])
def test_a_too_large_input_mid_stream_writes_nothing(tmp_path, capsys, monkeypatch, to_file):
    """TooLarge on duality's third instance, after every earlier suite's
    records are encoded: exit 2 and no report at all."""
    seen = []
    first, *rest = bozon.suites._SUITES["duality"][0]

    def lhs(inst):
        seen.append(inst.index)
        if len(seen) == 3:
            raise TooLarge("too many states")
        return first.lhs(inst)

    edges = (Edge(first.name, lhs, first.rhs, tol=first.tol), *rest)
    monkeypatch.setitem(bozon.suites._SUITES, "duality", (edges, "mixed"))
    out_path = tmp_path / "report.json"
    argv = ["verify", "--suite", "all", "--random", "4", "--seed", "1"]
    code, out, err = run_cli(capsys, *argv, *(["--out", str(out_path)] if to_file else []))
    assert (code, out, seen) == (2, "", [0, 1, 2])
    assert not out_path.exists()
    assert "TooLarge" in err and "Traceback" not in err
