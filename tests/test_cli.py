import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latpatch import brute_force_gluing_search, generate, serialize
from latpatch.cli import cli


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(serialize(generate("grid", [3, 3])))
    return str(path)


def test_check_grid(grid_file, capsys):
    assert cli(["check", grid_file]) == 0
    flags = json.loads(capsys.readouterr().out)
    assert flags == {"lattice": True, "semimodular": True, "planar": True,
                     "slim": True, "rectangular": True, "patch": False}


def test_check_non_semimodular_exits_one(tmp_path, capsys):
    from latpatch import Diagram, build_lattice
    n5 = Diagram(build_lattice([("0", "x"), ("x", "y"), ("y", "1"),
                                ("0", "z"), ("z", "1")]), [0, -1, -1, 1, 0])
    path = tmp_path / "n5.json"
    path.write_text(serialize(n5))
    assert cli(["check", str(path)]) == 1
    flags = json.loads(capsys.readouterr().out)
    assert flags["lattice"] and not flags["semimodular"]


def test_decompose_then_verify(grid_file, tmp_path, capsys):
    tree_path = str(tmp_path / "tree.json")
    assert cli(["decompose", grid_file, "-o", tree_path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("L7: 9 elements = gluing")
    assert cli(["verify", grid_file, tree_path]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_verify_mismatched_lattice(grid_file, tmp_path, capsys):
    tree_path = str(tmp_path / "tree.json")
    assert cli(["decompose", grid_file, "-o", tree_path]) == 0
    other = tmp_path / "other.json"
    other.write_text(serialize(generate("grid", [2, 3])))
    capsys.readouterr()
    assert cli(["verify", str(other), tree_path]) == 1
    assert "root_isomorphism" in capsys.readouterr().out


def test_oracle_diamond_prints_none(tmp_path, capsys):
    path = tmp_path / "m3.json"
    path.write_text(serialize(generate("diamond", [3])))
    assert cli(["oracle", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_oracle_chain_prints_witness(tmp_path, capsys):
    path = tmp_path / "c3.json"
    path.write_text(serialize(generate("chain", [3])))
    assert cli(["oracle", str(path)]) == 0
    witness = json.loads(capsys.readouterr().out)
    assert witness == {"A": ["0", "1"], "B": ["1", "2"], "C": ["1"]}


def test_gen_slim_rectangularize_dot(tmp_path, capsys):
    lattice_path = str(tmp_path / "m4.json")
    assert cli(["gen", "diamond", "4", "-o", lattice_path]) == 0
    slim_path = str(tmp_path / "slim.json")
    assert cli(["slim", lattice_path, "-o", slim_path]) == 0
    assert "removed 2 eye(s)" in capsys.readouterr().err
    chain_path = str(tmp_path / "c4.json")
    assert cli(["gen", "chain", "4", "-o", chain_path]) == 0
    rect_path = str(tmp_path / "rect.json")
    assert cli(["rectangularize", chain_path, "-o", rect_path]) == 0
    assert "added 2 element(s)" in capsys.readouterr().err
    assert cli(["dot", lattice_path]) == 0
    assert capsys.readouterr().out.count("->") == 8


def test_gen_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli(["gen", "random-sps", "12", "--seed", "4", "-o", str(a)]) == 0
    assert cli(["gen", "random-sps", "12", "--seed", "4", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_env_seed_is_default(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("LATPATCH_SEED", "7")
    assert cli(["gen", "random-sps", "10", "-o", str(a)]) == 0
    monkeypatch.delenv("LATPATCH_SEED")
    assert cli(["gen", "random-sps", "10", "--seed", "7", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_check_nonplanar_lattice(tmp_path, capsys):
    labels = [f"{i}{j}{k}" for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    covers = [[a, b] for a, x in enumerate(labels) for b, y in enumerate(labels)
              if sum(p != q for p, q in zip(x, y)) == 1 and x < y]
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"elements": labels, "covers": covers, "meta": {}}))
    assert cli(["check", str(path)]) == 1
    flags = json.loads(capsys.readouterr().out)
    assert flags["lattice"] and flags["semimodular"] and not flags["planar"]


def test_usage_and_io_errors(tmp_path, capsys):
    assert cli(["frobnicate"]) == 2
    capsys.readouterr()
    assert cli(["check", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert cli(["check", str(bad)]) == 2


def test_oracle_has_no_size_gate(tmp_path, capsys):
    g = generate("grid", [4, 4])
    path = tmp_path / "g44.json"
    path.write_text(serialize(g))
    assert cli(["oracle", str(path)]) == 0
    a, b, c = brute_force_gluing_search(g).labels()
    assert json.loads(capsys.readouterr().out) == {"A": a, "B": b, "C": c}


def test_max_oracle_flag_is_gone(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(serialize(generate("chain", [3])))
    assert cli(["--max-oracle", "5", "oracle", str(path)]) == 2


def test_check_non_string_coordinate_is_a_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["a"], "covers": [], "embedding": {"a": 0}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "latpatch.cli", "check", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: $.embedding.a: not a rational: 0"]
