import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_same_lattice, ladder_inputs
from latpatch import (DecompGlue, DecompLeaf, Diagram, GluingWitness, Lattice, decompose,
                      documents, export_dot, generate, is_rectangular, is_slim,
                      is_semimodular, parse_document, parse_tree_document,
                      serialize, serialize_tree, validate_diagram, verify_tree)
from latpatch import generators
from latpatch.documents import MAX_TREE_DEPTH, _format_rational, _tree_from_dict
from latpatch.errors import (BadParams, EmbeddingFailed, LatpatchError, SchemaError,
                             TreeTooDeep)
from oracles import json_reference, lattice_document, tree_document


# -- diagram documents -------------------------------------------------------

def test_round_trip_square(b2):
    text = serialize(b2)
    again = parse_document(text)
    assert again == b2
    assert serialize(again) == text


def test_round_trip_preserves_fractional_coordinates(m3):
    slimmed_text = serialize(m3)
    assert parse_document(slimmed_text) == m3


def test_parse_without_embedding_synthesizes(m3):
    doc = json.loads(serialize(m3))
    del doc["embedding"]
    diag = parse_document(json.dumps(doc))
    assert diag.lattice == m3.lattice
    assert validate_diagram(diag) is None


def test_parse_without_embedding_draws_a_chain_past_the_recursion_limit():
    # the search places one level per stack entry, not per call
    n = 1500
    doc = {"elements": [str(i) for i in range(n)],
           "covers": [[i, i + 1] for i in range(n - 1)]}
    diag = parse_document(json.dumps(doc), max_synth=2000)
    assert diag.lattice.names == tuple(doc["elements"])
    assert diag.xcoord == (Fraction(0),) * n


def test_parse_rejects_cycle():
    doc = {"elements": ["a", "b"], "covers": [[0, 1], [1, 0]], "meta": {}}
    with pytest.raises(SchemaError):
        parse_document(json.dumps(doc))


def test_parse_rejects_bad_shapes():
    with pytest.raises(SchemaError):
        parse_document("not json at all {")
    with pytest.raises(SchemaError):
        parse_document(json.dumps({"elements": ["a", "a"], "covers": []}))
    with pytest.raises(SchemaError):
        parse_document(json.dumps({"elements": ["a", "b"], "covers": [[0, 5]]}))
    with pytest.raises(SchemaError):
        parse_document(json.dumps({"elements": ["a"], "covers": [],
                                   "embedding": {"a": "one half"}}))


def test_parse_rejects_non_string_coordinate():
    doc = {"elements": ["a"], "covers": [], "embedding": {"a": 0}}
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(doc))
    assert info.value.path == "$.embedding.a"


def test_parse_rejects_an_embedding_that_is_no_object():
    for embedding in (["0", "0"], "0", 0, True):
        doc = {"elements": ["a", "b"], "covers": [[0, 1]], "embedding": embedding}
        with pytest.raises(SchemaError, match="expected an object") as info:
            parse_document(json.dumps(doc))
        assert info.value.path == "$.embedding", embedding


def test_parse_rejects_boolean_cover_indices():
    # isinstance(True, int) holds, so these once parsed as covers 0->1, 1->2
    doc = {"elements": ["a", "b", "c"], "covers": [[False, True], [True, 2]]}
    with pytest.raises(SchemaError, match="expected \\[lower, upper\\]") as info:
        parse_document(json.dumps(doc))
    assert info.value.path == "$.covers[0]"


def test_parse_rejects_crossing_embedding(hexagon):
    doc = json.loads(serialize(hexagon))
    doc["embedding"]["p"], doc["embedding"]["u"] = "-1", "1"
    doc["embedding"]["q"], doc["embedding"]["v"] = "1", "-1"
    with pytest.raises(SchemaError):
        parse_document(json.dumps(doc))


def test_parse_unembeddable_lattice_fails():
    labels = [f"{i}{j}{k}" for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    covers = []
    for a_idx, a in enumerate(labels):
        for b_idx, b in enumerate(labels):
            if sum(x != y for x, y in zip(a, b)) == 1 and a < b:
                covers.append([a_idx, b_idx])
    doc = {"elements": labels, "covers": covers, "meta": {}}
    with pytest.raises(EmbeddingFailed) as info:
        parse_document(json.dumps(doc))
    # the validated lattice rides along, so callers need not parse again
    lat = info.value.lattice
    assert lat.names == tuple(labels) and len(lat.covers) == 12
    with pytest.raises(EmbeddingFailed, match="exceeds the synthesis bound") as info:
        parse_document(json.dumps(doc), max_synth=4)
    assert info.value.lattice.names == tuple(labels)


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=25, deadline=None)
def test_round_trip_on_random_lattices(seed):
    diag = generate("random-sps", [2 + seed % 15], seed=seed)
    assert parse_document(serialize(diag)) == diag


@pytest.mark.parametrize("text", ["1_0", " 3 ", "3/6", "4/2", "3/1", "+3", "-0",
                                  "007", "1/-2", "-2/4"])
def test_parse_rejects_non_canonical_coordinate(text):
    # each parses as a number, but `serialize` would write it differently
    doc = {"elements": ["a"], "covers": [], "embedding": {"a": text}}
    with pytest.raises(SchemaError) as info:
        parse_document(json.dumps(doc))
    assert info.value.path == "$.embedding.a"


@pytest.mark.parametrize("text", ["0", "7", "-3", "1/2", "-5/3"])
def test_parse_accepts_canonical_coordinate(text):
    doc = {"elements": ["a"], "covers": [], "embedding": {"a": text}}
    assert serialize(parse_document(json.dumps(doc))) == json.dumps(
        dict(doc, meta={}), sort_keys=True, indent=2) + "\n"


def test_corpus_documents_round_trip(corpus, random_corpus_small):
    for name, diag in corpus + random_corpus_small:
        text = serialize(diag)
        again = parse_document(text)
        assert again == diag, name
        assert serialize(again) == text, name


# -- fuzzing: only domain errors escape --------------------------------------------

FUZZ_INPUTS = [generate("grid", [3, 3]), generate("random-sps", [9], seed=3),
               generate("chain", [4]), generate("diamond", [3])]
FUZZ_TREES = [decompose(diag)[0] for diag in FUZZ_INPUTS]
FUZZ_LABELS = sorted({x for diag in FUZZ_INPUTS for x in diag.lattice.names})
FUZZ_LEAVES = (st.none() | st.booleans() | st.integers(-2, 12)
               | st.floats(allow_nan=False) | st.text(max_size=3)
               | st.sampled_from(FUZZ_LABELS + ["1/2", "-1", "leaf", "glue", "elements",
                                                "covers", "embedding", "chain"]))
FUZZ_VALUES = st.recursive(
    FUZZ_LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                               kids, max_size=3),
    max_leaves=5)


def json_paths(doc, path=()):
    """Every position in a JSON value as a path of keys and indices, pre-order."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from json_paths(value, path + (key,))


def mutated(doc, data):
    """A copy of `doc` with one to three positions replaced, deleted or, in
    lists, duplicated.  Each position's depth is drawn first, so the few
    structural keys near the root are hit as often as the many leaves."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        depth = data.draw(st.sampled_from(sorted({len(p) for p in paths})))
        path = data.draw(st.sampled_from([p for p in paths if len(p) == depth]))
        op = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if not path:
            doc = data.draw(FUZZ_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "delete":
            del parent[key]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = data.draw(FUZZ_VALUES)
    return doc


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_lattice_documents_raise_only_domain_errors(data):
    k = data.draw(st.integers(0, len(FUZZ_INPUTS) - 1))
    text = json.dumps(mutated(json.loads(serialize(FUZZ_INPUTS[k])), data))
    try:
        diag = parse_document(text)
        verify_tree(FUZZ_TREES[k], diag)
    except LatpatchError:
        pass


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_tree_documents_raise_only_domain_errors(data):
    k = data.draw(st.integers(0, len(FUZZ_INPUTS) - 1))
    text = json.dumps(mutated(json.loads(serialize_tree(FUZZ_TREES[k])), data))
    try:
        tree = parse_tree_document(text)
        verify_tree(tree, FUZZ_INPUTS[k])
        verify_tree(tree, tree.diagram)
    except LatpatchError:
        pass


# -- the seeded mutation net: every reader, a few thousand fixed cases --------

NET_INPUTS = [generate("grid", [3, 3]), generate("random-sps", [14], seed=3),
              generate("chain", [5])]
NET_DOCS = [(kind, text, k) for k, diag in enumerate(NET_INPUTS)
            for kind, text in (("lattice", serialize(diag)),
                               ("tree", serialize_tree(decompose(diag)[0])))]
# markers that the document's text replaces: an integer longer than `int`
# converts by default, and lists nested deeper than `json.loads` reads
NET_TEXT = {json.dumps("\0huge"): "9" * 5000, json.dumps("\0deep"): "[" * 3000 + "]" * 3000}
NET_VALUES = [None, True, False, -1, 0, 1, 2, 7, 2 ** 64, -2 ** 63, 0.5, 1e300,
              "", "0", "1", "x", "leaf", "glue", "kind", "chain", "children",
              # coordinate strings that `serialize` never writes
              "1/2", "2/4", "-0", "+1", " 1", "1.0", "1e3", "1/0", "0/1", "1/-2",
              "\uff11", "\u0663", "1" * 5000, "1/" + "3" * 5000, "a" * 10000,
              "\0huge", "\0deep", [], {}, [0, 1], [[0, 1]], {"a": "0"}, ["0"]]
NET_PATHS = {text: list(json_paths(json.loads(text))) for _, text, _ in NET_DOCS}


def net_case(text, rng):
    """The text of a document mutated at one to three positions, each drawn
    depth first: deleted, replaced by a value of `NET_VALUES`, swapped with
    a sibling, overwritten by a copy of another position's value, or its
    key renamed; rarely, the text is cut short.  A position an earlier
    mutation removed is skipped."""
    doc, paths = json.loads(text), NET_PATHS[text]
    depths = sorted({len(p) for p in paths})

    def pick():
        depth = rng.choice(depths)
        return rng.choice([p for p in paths if len(p) == depth])

    def at(path):
        value = doc
        for key in path:
            value = value[key]
        return value

    for _ in range(rng.randint(1, 3)):
        path = pick()
        if not path:
            doc = rng.choice(NET_VALUES + [[doc], {"x": doc}])
            continue
        try:
            parent, key = at(path[:-1]), path[-1]
            parent[key]
        except (KeyError, IndexError, TypeError):
            continue
        if not isinstance(parent, (list, dict)):
            continue
        op = rng.choice(["delete", "replace", "replace", "swap", "copy", "rename"])
        if op == "delete":
            del parent[key]
        elif op == "swap" and isinstance(parent, list) and len(parent) > 1:
            other = rng.randrange(len(parent))
            parent[key], parent[other] = parent[other], parent[key]
        elif op == "copy":
            try:
                parent[key] = json.loads(json.dumps(at(pick())))
            except (KeyError, IndexError, TypeError):
                pass
        elif op == "rename" and isinstance(parent, dict):
            parent[rng.choice(NET_VALUES[12:36])] = parent.pop(key)
        else:
            parent[key] = rng.choice(NET_VALUES)
    out = json.dumps(doc)
    for marker, raw in NET_TEXT.items():
        out = out.replace(marker, raw)
    if rng.random() < 0.05:
        out = out[:rng.randrange(len(out))]
    return out


def test_the_seeded_mutation_net_ends_every_case_in_a_result_or_a_domain_error():
    # a mutated lattice document is parsed, decomposed and verified; a
    # mutated tree document is parsed and verified against its input.  Any
    # exception but a `LatpatchError` fails with the document that raised it
    rng, outcomes = random.Random(19), Counter()
    for case in range(3000):
        kind, text, k = NET_DOCS[case % len(NET_DOCS)]
        mutant = net_case(text, rng)
        try:
            if kind == "lattice":
                diag = parse_document(mutant)
                tree = decompose(diag)[0]
                outcome = "verified" if verify_tree(tree, diag) is None else "refused"
            else:
                tree = parse_tree_document(mutant)
                outcome = "verified" if verify_tree(tree, NET_INPUTS[k]) is None else "refused"
        except LatpatchError as exc:
            outcome = type(exc).__name__
        except Exception as exc:
            pytest.fail(f"case {case} ({kind} of input {k}) raised {exc!r} on {mutant!r}")
        outcomes[kind, outcome] += 1
    # the net reaches past the schema checks into the lattice axioms,
    # decomposition and verification, on both kinds of document
    for kind in ("lattice", "tree"):
        assert outcomes[kind, "SchemaError"] > 1000
        assert outcomes[kind, "NotBounded"] > 10 and outcomes[kind, "verified"] > 30
    assert outcomes["tree", "refused"] > 5 and outcomes["lattice", "NotSemimodular"] > 0


def test_an_integer_past_the_conversion_limit_is_a_schema_error():
    # `json.loads` raises a plain `ValueError`, no `JSONDecodeError`, for it
    text = '{"elements": ["a"], "covers": [[' + "1" * 5000 + ', 0]]}'
    with pytest.raises(SchemaError, match=r"^\$: not valid JSON: Exceeds the limit"):
        parse_document(text)
    with pytest.raises(SchemaError, match=r"^\$: not valid JSON: Exceeds the limit"):
        parse_tree_document('{"kind": "leaf", "lattice": ' + text + "}")


# -- the writer: byte-identical to json.dumps ---------------------------------------

def test_serializers_match_json_dumps_on_corpus(corpus, random_corpus_small):
    for name, diag in corpus + random_corpus_small:
        assert serialize(diag) == json_reference(lattice_document(diag)), name
        if diag.lattice.n > 1:
            tree, _ = decompose(diag)
            assert serialize_tree(tree) == json_reference(tree_document(tree)), name


def test_serialize_tree_matches_json_dumps_on_shared_subtrees():
    shared = 0
    for name, diag in ladder_inputs():
        tree, _ = decompose(diag)
        ids, occurrences, stack = set(), 0, [tree]
        while stack:
            node = stack.pop()
            ids.add(id(node))
            occurrences += 1
            if isinstance(node, DecompGlue):
                stack += [node.left, node.right]
        shared += occurrences - len(ids)
        assert serialize_tree(tree) == json_reference(tree_document(tree)), name
    assert shared > 0


def test_serialize_escapes_labels_like_json_dumps():
    labels = ['"q"', "back\\slash", "ctl\x01\x1f\n\t\x7f", "é", "日本",
              "\U0001f600", "\ud800", "</script>", ""]
    lat = Lattice(list(zip(labels, labels[1:])), elements=labels)
    diag = Diagram(lat, [0] * lat.n)
    meta = {label: label for label in labels}
    text = serialize(diag, meta=meta)
    assert text == json_reference(lattice_document(diag, meta))
    assert text.isascii()
    assert parse_document(text) == diag
    tree, _ = decompose(diag)
    assert serialize_tree(tree) == json_reference(tree_document(tree))


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=16)


@given(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=5)
       | st.dictionaries(st.integers(), JSON_VALUES, max_size=3))
@settings(max_examples=300, deadline=None)
def test_serialize_meta_matches_json_dumps(meta):
    diag = generate("grid", [2, 2])
    assert serialize(diag, meta=meta) == json_reference(lattice_document(diag, meta))


def test_serializers_match_json_dumps_on_empty_containers():
    one = Diagram(Lattice([], elements=["0"]), [0])
    assert serialize(one) == json_reference(lattice_document(one))
    for meta in ({"a": {}, "b": [], "c": [{}, [], [[]], {"d": {}}]},
                 {1: [], 2: {}, 3: {"e": []}}, {"k": {1: {}, 2: [[], {}]}}):
        assert serialize(one, meta=meta) == json_reference(lattice_document(one, meta))
    leaf = DecompLeaf(one)
    assert serialize_tree(leaf) == json_reference(tree_document(leaf))
    # no decomposition glues over an empty chain, but the writer lays one out
    # as json.dumps does
    glue = DecompGlue(leaf, leaf, 0, GluingWitness(one.lattice, frozenset([0]),
                                                   frozenset([0]), frozenset()), one)
    assert serialize_tree(glue) == json_reference(tree_document(glue))


def run_python(source):
    """`source` in a fresh interpreter, importing latpatch from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", source],
                          env=env, capture_output=True, text=True, timeout=120)


SERIALIZE_UNDER_LOW_LIMIT_RUN = """
import sys
from latpatch import decompose, generate, serialize_tree
tree, _ = decompose(generate("chain", [200]))
text = serialize_tree(tree)
# a recursive writer needs a frame per tree level, about 100 here
sys.setrecursionlimit(80)
print(serialize_tree(tree) == text)
"""


def test_serialize_tree_of_chain_200_under_a_low_recursion_limit():
    proc = run_python(SERIALIZE_UNDER_LOW_LIMIT_RUN)
    assert "RecursionError" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


# -- the tree-depth bound ------------------------------------------------------

def comb(levels):
    """A tree of `levels` levels built node by node: every glue node's left
    child is one shared leaf, its right child the next glue node.  Each node
    holds the one-element lattice, so the tree is cheap to write at any
    depth; it is no decomposition, and `verify_tree` rejects it."""
    one = Diagram(Lattice([], elements=["0"]), [0])
    leaf = DecompLeaf(one)
    witness = GluingWitness(one.lattice, frozenset([0]), frozenset([0]), frozenset([0]))
    node = leaf
    for _ in range(levels - 1):
        node = DecompGlue(leaf, node, 1, witness, one)
    return node


def comb_document(levels):
    """The document of `comb(levels)` as a dict, built level by level."""
    lattice = {"covers": [], "elements": ["0"], "embedding": {"0": "0"}, "meta": {}}
    leaf = {"kind": "leaf", "lattice": lattice}
    doc = leaf
    for _ in range(levels - 1):
        doc = {"kind": "glue", "lattice": lattice, "chain": ["0"], "children": [leaf, doc]}
    return doc


def test_writer_accepts_trees_at_the_depth_bound():
    text = serialize_tree(comb(MAX_TREE_DEPTH))
    assert text.count('"kind": "glue"') == MAX_TREE_DEPTH - 1
    assert text.splitlines()[-1] == "}"
    tree = _tree_from_dict(comb_document(MAX_TREE_DEPTH), "$")
    assert serialize_tree(tree) == text


def test_writer_refuses_trees_past_the_depth_bound():
    chunks = documents._tree_chunks(comb(MAX_TREE_DEPTH + 1))
    with pytest.raises(TreeTooDeep) as info:
        next(chunks)
    assert str(info.value) == (f"the decomposition tree has {MAX_TREE_DEPTH + 1} "
                               f"levels; a tree document holds at most {MAX_TREE_DEPTH}")
    with pytest.raises(TreeTooDeep):
        serialize_tree(comb(MAX_TREE_DEPTH + 1))


def test_certificates_at_the_depth_bound_parse_from_a_deep_caller():
    text = serialize_tree(comb(MAX_TREE_DEPTH))

    def parse_below(frames):
        return parse_below(frames - 1) if frames else parse_tree_document(text)

    # on 3.10 and 3.11 `json.loads` alone reads fewer levels than the bound
    # from 200 extra frames
    assert serialize_tree(parse_below(200)) == text


def test_reader_refuses_documents_past_the_depth_bound():
    _tree_from_dict(comb_document(MAX_TREE_DEPTH), "$")
    with pytest.raises(SchemaError) as info:
        _tree_from_dict(comb_document(MAX_TREE_DEPTH + 1), "$")
    # the first node walked at the deepest level is the left child of the
    # deepest glue node
    assert info.value.path == "$" + ".children[1]" * (MAX_TREE_DEPTH - 1) + ".children[0]"
    assert str(info.value).endswith(f": a tree document holds at most "
                                    f"{MAX_TREE_DEPTH} levels")


# -- tree documents ------------------------------------------------------------

def test_tree_round_trip_verifies():
    g = generate("grid", [3, 3])
    tree, _ = decompose(g)
    text = serialize_tree(tree)
    parsed = parse_tree_document(text)
    assert verify_tree(parsed, g) is None
    assert serialize_tree(parsed) == text


def test_tree_document_rejects_unknown_chain_label():
    g = generate("grid", [3, 3])
    tree, _ = decompose(g)
    doc = json.loads(serialize_tree(tree))
    known = doc["chain"][0]
    doc["chain"] = [known, "nope", "zzz"]
    with pytest.raises(SchemaError) as info:
        parse_tree_document(json.dumps(doc))
    assert str(info.value) == "$.chain: element 'nope' is not in the node's lattice"
    # the ideal part, the filter part and the chain are checked in that order
    child = doc["children"][1]["lattice"]
    old = child["elements"][-1]
    child["elements"][-1] = "alien"
    child["embedding"]["alien"] = child["embedding"].pop(old)
    doc["children"][1] = {"kind": "leaf", "lattice": child}
    with pytest.raises(SchemaError) as info:
        parse_tree_document(json.dumps(doc))
    assert str(info.value) == ("$.children[1]: element 'alien' is not in the "
                               "node's lattice")


def test_tree_document_rejects_non_string_chain_label():
    tree, _ = decompose(generate("grid", [3, 3]))
    doc = json.loads(serialize_tree(tree))
    doc["chain"] = [["x"]]
    with pytest.raises(SchemaError) as info:
        parse_tree_document(json.dumps(doc))
    assert info.value.path == "$.chain"


TREE_PARSE_UNDER_LOW_LIMIT_RUN = """
import json, sys
from latpatch import decompose, generate, serialize_tree, verify_tree
from latpatch.documents import _tree_from_dict
diag = generate("chain", [200])
tree, _ = decompose(diag)
doc = json.loads(serialize_tree(tree))
# a recursive walk needs a frame per tree level, about 100 here
sys.setrecursionlimit(80)
print(verify_tree(_tree_from_dict(doc, "$"), diag))
"""


def test_tree_parse_of_chain_200_under_a_low_recursion_limit():
    proc = run_python(TREE_PARSE_UNDER_LOW_LIMIT_RUN)
    assert "RecursionError" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"


# -- tree documents: children derived from their parent -------------------------

def tree_nodes(doc, node, path="$"):
    """(path, node document, parsed node) for every node of a tree, pre-order."""
    yield path, doc, node
    if doc["kind"] == "glue":
        for k, (child, sub) in enumerate(zip(doc["children"], (node.left, node.right))):
            yield from tree_nodes(child, sub, f"{path}.children[{k}]")


def test_tree_nodes_parse_like_lone_documents(corpus, random_corpus_small):
    for name, diag in corpus + random_corpus_small:
        text = serialize_tree(decompose(diag)[0])
        for path, doc, node in tree_nodes(json.loads(text), parse_tree_document(text)):
            alone = parse_document(json.dumps(doc["lattice"]))
            assert_same_lattice(node.diagram.lattice, alone.lattice, (name, path))
            assert node.diagram.xcoord == alone.xcoord, (name, path)


@pytest.mark.parametrize("kind, params, seed", [("grid", [5, 5], 0),
                                                ("random-sps", [30], 7)])
def test_tree_parse_validates_the_root_only(kind, params, seed, monkeypatch):
    text = serialize_tree(decompose(generate(kind, params, seed=seed))[0])
    real_init, real_validate = Lattice.__init__, documents.validate_diagram
    calls = []

    def counting_init(self, *args, **kwargs):
        calls.append("lattice")
        real_init(self, *args, **kwargs)

    def counting_validate(diag):
        calls.append("validate")
        return real_validate(diag)

    monkeypatch.setattr(Lattice, "__init__", counting_init)
    monkeypatch.setattr(documents, "validate_diagram", counting_validate)
    parsed = parse_tree_document(text)
    monkeypatch.undo()
    assert sorted(calls) == ["lattice", "validate"]
    assert sum(1 for _ in tree_nodes(json.loads(text), parsed)) > 20
    assert serialize_tree(parsed) == text


def parse_outcome(text):
    """The parsed tree, or the error's class, path and message."""
    try:
        return parse_tree_document(text)
    except LatpatchError as exc:
        return type(exc), getattr(exc, "path", None), str(exc)


def assert_same_outcome(text, monkeypatch):
    """Parsing with derived children gives what parsing every node in full gives."""
    derived = parse_outcome(text)
    with monkeypatch.context() as m:
        m.setattr(documents, "_derived_child", lambda *args: None)
        full = parse_outcome(text)
    if isinstance(full, tuple):
        assert derived == full
        return
    assert not isinstance(derived, tuple), derived
    doc = json.loads(text)
    for (path, _, a), (_, _, b) in zip(tree_nodes(doc, derived), tree_nodes(doc, full)):
        assert_same_lattice(a.diagram.lattice, b.diagram.lattice, path)
        assert a.diagram.xcoord == b.diagram.xcoord, path
        if isinstance(b, DecompGlue):
            assert (a.witness.A, a.witness.B, a.witness.C) == (
                b.witness.A, b.witness.B, b.witness.C), path


def with_elements(lattice, elements):
    """`lattice` (a lattice document) on a new element list; covers follow
    the labels, and covers touching a dropped label are dropped."""
    pos = {e: i for i, e in enumerate(elements)}
    old = lattice["elements"]
    covers = [[pos[old[a]], pos[old[b]]] for a, b in lattice["covers"]
              if old[a] in pos and old[b] in pos]
    return dict(lattice, elements=elements, covers=covers)


def missing_cover(lat):
    return dict(lat, covers=lat["covers"][1:])


def extra_cover(lat):
    k = len(lat["elements"])
    extra = [0, k - 1] if [0, k - 1] not in lat["covers"] else [k - 1, 0]
    return dict(lat, covers=lat["covers"] + [extra])


def moved_coordinate(lat):
    name = lat["elements"][-1]
    moved = _format_rational(Fraction(lat["embedding"][name]) + 1)
    return dict(lat, embedding=dict(lat["embedding"], **{name: moved}))


def rewritten_coordinate(lat):
    name = lat["elements"][0]
    x = Fraction(lat["embedding"][name])
    same = f"{2 * x.numerator}/{2 * x.denominator}"
    return dict(lat, embedding=dict(lat["embedding"], **{name: same}))


def non_interval(lat):
    # the interval without one of its middles: both ends stay, so the rest
    # is not the interval between them
    parsed = parse_document(json.dumps(lat)).lattice
    ends = {parsed.names[parsed.bottom], parsed.names[parsed.top]}
    middle = next(e for e in lat["elements"] if e not in ends)
    return with_elements(lat, [e for e in lat["elements"] if e != middle])


def reordered(lat):
    return with_elements(lat, lat["elements"][::-1])


def without_embedding(lat):
    return {key: value for key, value in lat.items() if key != "embedding"}


def foreign_label(lat):
    name = lat["elements"][-1]
    embedding = dict(lat["embedding"])
    embedding["new-" + name] = embedding.pop(name)
    elements = lat["elements"][:-1] + ["new-" + name]
    return dict(lat, elements=elements, embedding=embedding)


def reordered_covers(lat):
    return dict(lat, covers=lat["covers"][::-1])


def repeated_cover(lat):
    return dict(lat, covers=lat["covers"] + lat["covers"][:1])


def true_index(lat):
    # `true` equals 1 in Python, but a cover index must be an integer
    k = next(k for k, pair in enumerate(lat["covers"]) if 1 in pair)
    covers = list(lat["covers"])
    covers[k] = [True if i == 1 else i for i in covers[k]]
    return dict(lat, covers=covers)


def float_index(lat):
    lower, upper = lat["covers"][0]
    return dict(lat, covers=[[float(lower), upper]] + lat["covers"][1:])


def integer_label(lat):
    return dict(lat, elements=lat["elements"][:-1] + [len(lat["elements"])])


def list_label(lat):
    return dict(lat, elements=lat["elements"][:-1] + [lat["elements"][-1:]])


def non_object_meta(lat):
    return dict(lat, meta=[])


TAMPERINGS = [missing_cover, extra_cover, moved_coordinate, rewritten_coordinate,
              non_interval, reordered, without_embedding, foreign_label,
              reordered_covers, repeated_cover, true_index, float_index,
              integer_label, list_label, non_object_meta]


@pytest.mark.parametrize("tamper", TAMPERINGS, ids=lambda f: f.__name__)
def test_tampered_children_parse_as_in_full(tamper, monkeypatch):
    checked = 0
    for diag in (generate("grid", [3, 4]), generate("random-sps", [14], seed=3),
                 generate("random-sps", [12], seed=8)):
        doc = json.loads(serialize_tree(decompose(diag)[0]))
        for path, node, _ in list(tree_nodes(doc, parse_tree_document(json.dumps(doc)))):
            if path == "$" or len(node["lattice"]["elements"]) < 3:
                continue
            original = node["lattice"]
            node["lattice"] = tamper(original)
            # as JSON text, since `true` and `1.0` compare equal to 1
            assert json.dumps(node["lattice"], sort_keys=True) != json.dumps(
                original, sort_keys=True)
            assert_same_outcome(json.dumps(doc), monkeypatch)
            node["lattice"] = original
            checked += 1
    assert checked > 10


def test_non_uniform_height_shift_is_validated_in_full(monkeypatch):
    # 0 < y < a < x and y < b < x with b also above q1 < q2, so b sits a level
    # higher in the parent than a; in the interval [y, x] both are atoms
    covers = [("0", "y"), ("0", "q1"), ("q1", "q2"), ("y", "a"), ("y", "b"),
              ("q2", "b"), ("a", "x"), ("b", "x")]
    elements = ["0", "y", "q1", "q2", "a", "b", "x"]
    interval = ["y", "a", "b", "x"]
    for a_x, fails in (("0", True), ("1/2", False)):
        xs = {"0": "-1", "y": "-1", "q1": "-2", "q2": "-2", "a": a_x, "b": "0", "x": "1"}
        parent = Diagram(Lattice(covers, elements=elements),
                         [Fraction(xs[e]) for e in elements])
        assert validate_diagram(parent) is None
        child = with_elements(lattice_document(parent), interval)
        child["embedding"] = {e: xs[e] for e in interval}
        leaf = {"kind": "leaf", "lattice": child}
        text = json.dumps({"kind": "glue", "lattice": lattice_document(parent),
                           "chain": ["y"], "children": [leaf, leaf]})
        assert_same_outcome(text, monkeypatch)
        outcome = parse_outcome(text)
        if fails:
            # a and b share x = 0 and, in the interval, their height
            assert outcome[:2] == (SchemaError, "$.children[0].lattice.embedding")
        else:
            assert outcome.left.diagram.lattice.height == (0, 1, 1, 2)


# -- generators -----------------------------------------------------------------

def test_generate_named_shapes():
    c3 = generate("chain", [3])
    assert c3.lattice.n == 3
    g = generate("grid", [3, 3])
    assert g.lattice.n == 9 and is_slim(g) and is_rectangular(g)
    m3 = generate("diamond", [3])
    assert m3.lattice.n == 5 and not is_slim(m3)


def test_generate_rejects_bad_params():
    with pytest.raises(BadParams):
        generate("chain", [0])
    with pytest.raises(BadParams):
        generate("diamond", [2])
    with pytest.raises(BadParams):
        generate("grid", [3])
    with pytest.raises(BadParams, match="grid sides must be positive"):
        generate("grid", [0, 3])
    with pytest.raises(BadParams):
        generate("nonsense", [1])
    with pytest.raises(BadParams):
        generate("random-sps", [1])


def test_generate_checks_its_parameters_before_it_runs(monkeypatch):
    for kind, params in [("chain", []), ("chain", [2, 3]), ("grid", [3]),
                         ("grid", [3, 3, 3]), ("diamond", [3.0]), ("chain", [2.5]),
                         ("random-sps", ["8"]), ("random-sps", [None]),
                         ("grid", [3, "3"])]:
        with pytest.raises(BadParams, match="wrong parameters"):
            generate(kind, params)

    # an error inside a generator is its own, not a bad parameter
    def broken(target, seed):
        raise TypeError("an internal fault")

    monkeypatch.setattr(generators, "random_sps_diagram", broken)
    with pytest.raises(TypeError, match="an internal fault"):
        generate("random-sps", [8])


def test_generate_random_is_deterministic():
    a = serialize(generate("random-sps", [17], seed=9))
    b = serialize(generate("random-sps", [17], seed=9))
    assert a == b
    c = serialize(generate("random-sps", [17], seed=10))
    assert a != c


# SHA-256 of `serialize(generate("random-sps", [n], seed=s))`, recorded
# before the generator's gluings stopped computing every shift up front and
# its rounds stopped listing every two-middle interval; (640, 7) before it
# grew one diagram in place
RANDOM_SPS = {
    (24, 0): "157281eeb0cfa5f9e89ad39acac64d39d5a5c278210c48d8e5893d3e05dc7ce5",
    (24, 1): "eff447553fadede84541a348ef8f9095b3b2b2b342d82646e784b98d36266593",
    (24, 2): "fbc1d990846e8f9306ab4a6ffb80388b033add09a5ed083c78b241010cdd4407",
    (80, 0): "bd7ec7d75a6df9b5adc02496187d212ae802c972c000b23f83224d13d3617087",
    (80, 1): "e771a784227ffb1f19206bd53b6ae2330f72153d0230161fe5f944b8f9100b6c",
    (80, 2): "4189ac5e93cb7afb75fca9c38867bb40dd7c07cdd5a3edf778e6903035418167",
    (160, 0): "2df07594e64d048e602a41caa6c63e831005b6bb994a6a5ac6430ecb3379bfd1",
    (160, 1): "d71c6e2787c9ff8d49f9b217d16946844c66884a98754abc1c3e072bf910657f",
    (160, 2): "fa338304177348e3498e0b9bac872bfb93e20b6c778d33428907e3652bea6fd8",
    (640, 7): "1de4be817a8ff92fd87104876529ace872cf5874ab9b62dd88cac8abacacddea",
}


@pytest.mark.parametrize("n, seed", RANDOM_SPS)
def test_generate_random_is_pinned(n, seed):
    text = serialize(generate("random-sps", [n], seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_SPS[n, seed]


# SHA-256 of `serialize_tree(decompose(generate("random-sps", [n], seed=0))[0])`;
# 320's is also the `t320.json` that CI checks
CERTIFICATES = {
    160: "76e446f464575161280d8d681ba0bb06b550cc3db59f4710976a9f24ade60788",
    320: "4a1c2879b4644d3c180b2f97f027fd59e0a7cdead2c505beaa5c3f044347517b",
}


@pytest.mark.parametrize("n", CERTIFICATES)
def test_decompose_certificate_is_pinned(n):
    diag = generate("random-sps", [n], seed=0)
    text = serialize_tree(decompose(diag)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATES[n]
    parsed = parse_tree_document(text)
    assert verify_tree(parsed, diag) is None
    assert serialize_tree(parsed) == text


def test_generate_random_hits_target_and_class(random_corpus_small):
    for name, diag in list(random_corpus_small)[:60]:
        assert validate_diagram(diag) is None, name
        assert is_semimodular(diag.lattice), name


# -- DOT export -------------------------------------------------------------------

def test_dot_chain_counts():
    text = export_dot(generate("chain", [2]))
    assert text.count("->") == 1
    assert text.count("rank=same") == 2


def test_dot_square_ranks(b2):
    text = export_dot(b2)
    assert text.count("->") == 4
    assert '{ rank=same; "l"; "r"; }' in text


def test_dot_grid_counts_and_stability():
    g = generate("grid", [3, 3])
    text = export_dot(g)
    assert text.count("->") == 12
    assert text == export_dot(generate("grid", [3, 3]))
