import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latpatch import (DiagramViolation, brute_force_gluing_search, decompose,
                      documents, generate, parse_document, parse_tree_document,
                      serialize, serialize_tree, verify_tree)
from latpatch import generators, pipeline
from latpatch.cli import cli
from latpatch.documents import MAX_TREE_DEPTH


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(serialize(generate("grid", [3, 3])))
    return str(path)


# SHA-256 of the stdout and stderr of `latpatch --trace decompose` and of
# the stdout of `latpatch rectangularize`, recorded before the hulls of
# inner nodes stopped being drawn
PINNED_OUTPUT = {
    ("random-sps", (32,), 7): (
        "839336bbaf3963795480161f8204eaa9fe292b2ec2ca92d70f4db0d122d95b82",
        "2946e609fa5e74f05216993dbb0d5bc64e6c5c625f001e1f6fff98f46b4f59c6",
        "1fabca1388fd181f5b1d023c2683cce251d7f16df185b55322cb1040f406e621"),
    ("random-sps", (80,), 7): (
        "1f31a719885520a5f5bda4a01cc6f267b78915aa2de9770096036d37464ac527",
        "7f00b5fc3066f336d5127ee6e7777cc453570737a4feafa6a60f3b0c7e480ff3",
        "5f7bce120766747fbf6b10de80d29bc493f661948db13eebe94d4506a9db9b8e"),
    ("grid", (4, 6), 0): (
        "6d74bcfd4c59129f34e9423e52746f6dcd21a06211e010e3422a93f9927cdbb0",
        "3df3e2a1de269acca8808ee3bde53f2181094b4c0f9eef994cafd4d326ff697a",
        "c7fa2f540ed89e07f34adfe66f566a6f2f30077afdcbda0edaeb25a8ca0f1335"),
    ("chain", (12,), 0): (
        "123ab04680fe7ac1c9ccc9ec728ed07114f482327a1170f8a43bb9282c2ba158",
        "fca0783579a6c5498c0c505888271f65eafff210afae5c855154e6ff84c1d9c8",
        "4af25c7fbc2c2bbe736495e7864d233c7a28bd1a6e6e6d08570a52fe71669c7d"),
}


@pytest.mark.parametrize("kind, params, seed", PINNED_OUTPUT)
def test_decompose_trace_and_rectangularize_output_is_pinned(kind, params, seed,
                                                             tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(serialize(generate(kind, list(params), seed=seed)))
    assert cli(["--trace", "decompose", str(path)]) == 0
    decomposed = capsys.readouterr()
    assert cli(["rectangularize", str(path)]) == 0
    rectangularized = capsys.readouterr().out
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in
                    (decomposed.out, decomposed.err, rectangularized))
    assert digests == PINNED_OUTPUT[kind, params, seed]


@pytest.mark.parametrize("kind, params, line", [
    ("chain", [3], "trace: 0 eye(s) removed, 1 extension step(s), fallback_used=True"),
    ("chain", [12], "trace: 0 eye(s) removed, 10 extension step(s), fallback_used=False"),
    ("random-sps", [24], "trace: 5 eye(s) removed, 29 extension step(s), fallback_used=False"),
    ("random-sps", [160],
     "trace: 18 eye(s) removed, 1444 extension step(s), fallback_used=False"),
    ("grid", [4, 6], "trace: 0 eye(s) removed, 0 extension step(s), fallback_used=False"),
    ("diamond", [4], "trace: 0 eye(s) removed, 0 extension step(s), fallback_used=False"),
])
def test_the_trace_line_counts_steps_without_drawing(kind, params, line, tmp_path,
                                                     capsys, monkeypatch):
    # the steps are counted off the root's undrawn run, and the line is the
    # one the drawn hull gives
    diag = generate(kind, params, seed=0)
    trace = decompose(diag)[1]
    assert line == (f"trace: {len(trace.eyes)} eye(s) removed, "
                    f"{len(trace.extension_steps)} extension step(s), "
                    f"fallback_used={trace.fallback_used}")
    path = tmp_path / "in.json"
    path.write_text(serialize(diag))
    draws = []
    draw = pipeline._drawn_hull

    def counted(*run):
        draws.append(run)
        return draw(*run)

    monkeypatch.setattr(pipeline, "_drawn_hull", counted)
    assert cli(["--trace", "decompose", str(path)]) == 0
    assert capsys.readouterr().err.splitlines() == [line] and draws == []


def test_check_grid(grid_file, capsys):
    assert cli(["check", grid_file]) == 0
    flags = json.loads(capsys.readouterr().out)
    assert flags == {"lattice": True, "semimodular": True, "planar": True,
                     "slim": True, "rectangular": True, "patch": False}


def test_check_non_semimodular_exits_one(tmp_path, capsys):
    from latpatch import Diagram, Lattice
    n5 = Diagram(Lattice([("0", "x"), ("x", "y"), ("y", "1"),
                          ("0", "z"), ("z", "1")]), [0, -1, -1, 1, 0])
    path = tmp_path / "n5.json"
    path.write_text(serialize(n5))
    assert cli(["check", str(path)]) == 1
    flags = json.loads(capsys.readouterr().out)
    assert flags["lattice"] and not flags["semimodular"]


@pytest.mark.parametrize("elements, covers", [
    (["0", "a", "b"], [[0, 1], [0, 2]]),                      # two maximal elements
    (["0", "a", "b", "c", "d", "1"],                         # a and b have no join
     [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 5], [4, 5]]),
])
def test_check_covers_that_are_no_lattice_exit_one(elements, covers, tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"elements": elements, "covers": covers, "meta": {}}))
    assert cli(["check", str(path)]) == 1
    flags = json.loads(capsys.readouterr().out)
    assert flags == dict.fromkeys(["lattice", "patch", "planar", "rectangular",
                                   "semimodular", "slim"], False)


def test_decompose_then_verify(grid_file, tmp_path, capsys):
    tree_path = str(tmp_path / "tree.json")
    assert cli(["decompose", grid_file, "-o", tree_path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("L7: 9 elements = gluing")
    assert cli(["verify", grid_file, tree_path]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_decompose_to_stdout_writes_only_the_certificate(grid_file, capsys):
    assert cli(["decompose", grid_file]) == 0
    sequence = capsys.readouterr().out
    assert cli(["decompose", grid_file, "-o", "-"]) == 0
    written = capsys.readouterr()
    tree = parse_tree_document(written.out)
    with open(grid_file, encoding="utf-8") as handle:
        assert verify_tree(tree, parse_document(handle.read())) is None
    # the sequence goes to stderr instead
    assert written.err == sequence


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


@pytest.mark.parametrize("args, message", [
    (["chain", "0"], "a chain needs at least one element"),
    (["grid", "3"], "wrong parameters for 'grid': [3]"),
    (["grid", "2", "0"], "grid sides must be positive"),
    (["diamond", "2"], "a diamond needs at least three atoms"),
    (["random-sps", "1"], "random lattices need at least two elements"),
    (["random-sps", "8", "8"], "wrong parameters for 'random-sps': [8, 8]"),
])
def test_gen_refused_parameters_are_a_usage_error(args, message, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert cli(["gen", *args, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out.exists()


def test_gen_output_faults_fail_the_generator(monkeypatch, capsys):
    # an invalid drawing or a lattice that is not semimodular is a fault of
    # the generator, not of its parameters
    monkeypatch.setattr(generators, "validate_diagram",
                        lambda diag: DiagramViolation("edge_crossing", "two edges cross"))
    assert cli(["gen", "chain", "3"]) == 1
    assert capsys.readouterr().err == (
        "error: AssertionFailed: generator produced an invalid drawing: two edges cross\n")
    monkeypatch.undo()
    monkeypatch.setattr(generators, "is_semimodular", lambda lat: False)
    assert cli(["gen", "random-sps", "8"]) == 1
    assert capsys.readouterr().err == (
        "error: AssertionFailed: generator produced a non-semimodular lattice\n")


def test_malformed_env_seed_fails_gen_alone(grid_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LATPATCH_SEED", "abc")
    assert cli(["check", grid_file]) == 0
    capsys.readouterr()
    assert cli(["gen", "chain", "3"]) == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli(["gen", "random-sps", "10", "--seed", "7", "-o", str(a)]) == 0
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


def test_non_utf8_input_is_one_error_line(grid_file, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"elements": ["\xe9"], "covers": []}')
    assert cli(["check", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: $: {path} is not UTF-8 text: invalid continuation byte at byte 15"]
    assert cli(["verify", grid_file, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: $: {path} is not UTF-8")


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


def run_cli(*args):
    """The CLI in a fresh interpreter, importing latpatch from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "latpatch.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)


def test_check_non_string_coordinate_is_a_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["a"], "covers": [], "embedding": {"a": 0}}))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: $.embedding.a: not a rational: 0"]


C3 = serialize(generate("chain", [3]))
C3_TREE = json.loads(serialize_tree(decompose(generate("chain", [3]))[0]))


@pytest.mark.parametrize("command, lattice, tree", [
    # an integer longer than `int` converts, a truncated document, a
    # coordinate that is not in lowest terms, a cover that names no element,
    # children that are no list, and a chain label that is no string
    ("check", C3.replace('"0",', '"0", ' + "7" * 5000 + ",", 1), None),
    ("decompose", C3[:40], None),
    ("rectangularize", C3.replace('"1": "0"', '"1": "0/2"'), None),
    ("slim", C3.replace("2\n    ]", "9\n    ]"), None),
    ("verify", C3, json.dumps({**C3_TREE, "children": "x"})),
    ("verify", C3, json.dumps({**C3_TREE, "chain": [1]})),
])
def test_a_malformed_document_is_one_error_line(command, lattice, tree, tmp_path):
    paths = [tmp_path / "lattice.json"]
    paths[0].write_text(lattice)
    if tree is not None:
        paths.append(tmp_path / "tree.json")
        paths[1].write_text(tree)
    proc = run_cli(command, *map(str, paths))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: $"), lines


def test_verify_deeply_nested_tree_is_a_schema_error(tmp_path):
    # two JSON levels per tree level: 12000 exceeds what `json.loads` nests
    # on every supported Python (under 1500 up to 3.12, under 10000 on 3.13)
    c2 = serialize(generate("chain", [2]))
    lattice = tmp_path / "c2.json"
    lattice.write_text(c2)
    leaf = f'{{"kind": "leaf", "lattice": {c2}}}'
    glue = f'{{"kind": "glue", "lattice": {c2}, "chain": ["0"], "children": ['
    tree = tmp_path / "deep.json"
    tree.write_text(glue * 6000 + leaf + f", {leaf}]}}" * 6000)
    proc = run_cli("verify", str(lattice), str(tree))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: $: document nests too deeply"]


def test_decompose_past_the_depth_bound_is_one_error_line(tmp_path):
    # the n-element chain's certificate has n/2 + 1 levels
    path = tmp_path / "chain.json"
    path.write_text(serialize(generate("chain", [2 * MAX_TREE_DEPTH])))
    out = tmp_path / "tree.json"
    out.write_text("left as it was")
    proc = run_cli("decompose", str(path), "-o", str(out))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: input too large: the decomposition tree has {MAX_TREE_DEPTH + 1} "
        f"levels; a tree document holds at most {MAX_TREE_DEPTH}"]
    assert out.read_text() == "left as it was"


def test_certificates_at_the_depth_bound_are_written_and_verify(tmp_path, monkeypatch,
                                                                 capsys):
    # a real certificate at MAX_TREE_DEPTH levels is hundreds of megabytes,
    # so the same code runs here under a lower bound
    monkeypatch.setattr(documents, "MAX_TREE_DEPTH", 20)
    for n, code in ((38, 0), (40, 3)):
        path = tmp_path / f"chain{n}.json"
        path.write_text(serialize(generate("chain", [n])))
        out = tmp_path / f"tree{n}.json"
        assert cli(["decompose", str(path), "-o", str(out)]) == code
        if code:
            assert not out.exists()
            assert capsys.readouterr().err.splitlines() == [
                "error: input too large: the decomposition tree has 21 levels; "
                "a tree document holds at most 20"]
            continue
        assert cli(["verify", str(path), str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "ok"


def test_verify_reads_tree_documents_up_to_the_depth_bound(tmp_path):
    # one-element nodes keep the document small; it is read, and verify
    # then rejects it as a gluing, at the bound, and one level deeper it is
    # a schema error on every Python, whatever json.loads takes
    one = '{"elements": ["0"], "covers": [], "embedding": {"0": "0"}}'
    lattice = tmp_path / "one.json"
    lattice.write_text(one)
    leaf = f'{{"kind": "leaf", "lattice": {one}}}'
    glue = f'{{"kind": "glue", "lattice": {one}, "chain": ["0"], "children": [{leaf}, '
    tree = tmp_path / "tree.json"
    for levels in (MAX_TREE_DEPTH, MAX_TREE_DEPTH + 1):
        tree.write_text(glue * (levels - 1) + leaf + "]}" * (levels - 1))
        proc = run_cli("verify", str(lattice), str(tree))
        assert "Traceback" not in proc.stderr
        if levels == MAX_TREE_DEPTH:
            assert proc.returncode == 1, proc.stderr
            assert proc.stdout == ("violation at root [witness_valid]: "
                                   "witness is not proper\n")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: $" + ".children[1]" * (MAX_TREE_DEPTH - 1) + ".children[0]: "
        f"a tree document holds at most {MAX_TREE_DEPTH} levels"]


def test_check_deeply_nested_lattice_document_is_a_schema_error(tmp_path):
    doc = json.loads(serialize(generate("chain", [2])))
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc)[:-1] + ', "meta": {"deep": '
                    + "[" * 100000 + "]" * 100000 + "}}")
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: $: document nests too deeply"]


def test_recursion_limit_is_one_error_line(grid_file, monkeypatch, capsys):
    def too_deep(diag):
        raise RecursionError

    monkeypatch.setattr("latpatch.cli.decompose", too_deep)
    assert cli(["decompose", grid_file]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: input too large: the interpreter's recursion limit was reached"]


def bare_chain(n):
    """The n-element chain as a document without an embedding."""
    return {"elements": [str(i) for i in range(n)],
            "covers": [[i, i + 1] for i in range(n - 1)]}


def test_check_chain_without_embedding_past_the_recursion_limit(tmp_path):
    # the search for a drawing keeps its levels on an explicit stack, so a
    # chain taller than the recursion limit is drawn
    n = 1100
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(bare_chain(n)))
    proc = run_cli("--max-synth", str(n), "check", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ('{"lattice": true, "patch": false, "planar": true, '
                           '"rectangular": false, "semimodular": true, "slim": true}\n')


def test_tree_leaf_without_embedding_past_the_recursion_limit(tmp_path):
    # the leaf's drawing is synthesized as `check` synthesizes the lattice's,
    # and a long chain is no patch lattice
    n = 1100
    doc = bare_chain(n)
    lattice = tmp_path / "chain.json"
    lattice.write_text(json.dumps({**doc, "embedding": {e: "0" for e in doc["elements"]}}))
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"kind": "leaf", "lattice": doc}))
    proc = run_cli("--max-synth", str(n), "verify", str(lattice), str(tree))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ("violation at root [leaf_patch]: Lattice(1100 elements, "
                           "1099 covers) is not a patch lattice\n")


def test_memory_error_is_one_error_line(grid_file, monkeypatch, capsys):
    def exhausted(diag):
        raise MemoryError

    monkeypatch.setattr("latpatch.cli.decompose", exhausted)
    assert cli(["decompose", grid_file]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: input too large: out of memory"]
