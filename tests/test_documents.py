import json

import pytest
from hypothesis import given, settings, strategies as st

from latpatch import (decompose, export_dot, generate, is_rectangular, is_slim,
                      is_semimodular, parse_document, parse_tree_document,
                      serialize, serialize_tree, validate_diagram, verify_tree)
from latpatch.errors import BadParams, EmbeddingFailed, SchemaError


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
    with pytest.raises(EmbeddingFailed):
        parse_document(json.dumps(doc))


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=25, deadline=None)
def test_round_trip_on_random_lattices(seed):
    diag = generate("random-sps", [2 + seed % 15], seed=seed)
    assert parse_document(serialize(diag)) == diag


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
    doc["chain"] = ["nope"]
    with pytest.raises(SchemaError):
        parse_tree_document(json.dumps(doc))


def test_tree_document_rejects_non_string_chain_label():
    tree, _ = decompose(generate("grid", [3, 3]))
    doc = json.loads(serialize_tree(tree))
    doc["chain"] = [["x"]]
    with pytest.raises(SchemaError) as info:
        parse_tree_document(json.dumps(doc))
    assert info.value.path == "$.chain"


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
    with pytest.raises(BadParams):
        generate("nonsense", [1])
    with pytest.raises(BadParams):
        generate("random-sps", [1])


def test_generate_random_is_deterministic():
    a = serialize(generate("random-sps", [17], seed=9))
    b = serialize(generate("random-sps", [17], seed=9))
    assert a == b
    c = serialize(generate("random-sps", [17], seed=10))
    assert a != c


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
