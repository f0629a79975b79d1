"""Command-line behavior: exit codes, determinism, and output shapes."""

from __future__ import annotations

import json

import pytest

from bozon.cli import main


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


def test_verify_random_applies_caps(capsys):
    code, out, err = run_cli(capsys, "verify", "--random", "3", "--caps", "V=4")
    assert code == 2
    assert out == ""
    assert "grid_2_3 has 6 vertices, cap is 4" in err


def test_verify_violation_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "theorem1", "--random", "2", "--tol", "0"
    )
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 2


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


def test_verify_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, "verify", "--graph", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_verify_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--graph", "/nonexistent/g.json")
    assert code == 2


def test_verify_caps_gate(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "builtin", "grid_3_3")
    path = tmp_path / "g33.json"
    path.write_text(out)
    code, _, err = run_cli(
        capsys, "verify", "--suite", "theorem1", "--graph", str(path),
        "--caps", "V=8,E=24",
    )
    assert code == 2
    assert "cap" in err


def test_verify_bad_caps_syntax(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--random", "2", "--caps", "Q=9"])
    assert exc.value.code == 2


def test_verify_explicit_magnetization_exits_2(capsys, c4_file):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "magnetization", "--graph", c4_file
    )
    assert code == 2


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


def test_export_writes_gq_and_svgs(tmp_path, capsys):
    out_dir = tmp_path / "exported"
    code, _, err = run_cli(
        capsys, "export", "--builtin", "k3", "--svg", "--out", str(out_dir)
    )
    assert code == 0
    gq = json.loads((out_dir / "k3.gq.json").read_text())
    assert len(gq["vertices"]) == 12
    for stem in ("map", "dual", "corner", "gq", "pair", "matching"):
        text = (out_dir / f"k3.{stem}.svg").read_text()
        assert text.startswith("<svg")
    assert err.count("wrote") == 7


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
