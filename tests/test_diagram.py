from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from latpatch import (Diagram, DiagramViolation, EyeRecord, boundaries,
                      build_lattice, find_eyes, generate, is_isomorphic,
                      is_patch, is_rectangular, is_slim, reflect,
                      restore_eyes, slim, synthesize_embedding,
                      upper_left_boundary, validate_diagram)
from latpatch.diagram import _segments_conflict
from latpatch.errors import MissingAnchor, NotRectangular, SizeBoundExceeded


def names_of(diag, ids):
    return [diag.lattice.names[v] for v in ids]


# -- validate_diagram -------------------------------------------------------

def test_validate_square_and_fan(b2, m3):
    assert validate_diagram(b2) is None
    assert validate_diagram(m3) is None


def test_duplicate_position(b2):
    bad = Diagram(b2.lattice, [0, -1, -1, 0])  # both atoms at (-1, 1)
    violation = validate_diagram(bad)
    assert violation is not None and violation.kind == "duplicate_position"


def test_hexagon_crossing_detected(hexagon):
    lat = hexagon.lattice
    # transpose the two middle elements: the rungs p->u and q->v now cross
    bad = Diagram(lat, [0, -1, 1, 1, -1, 0])
    violation = validate_diagram(bad)
    assert violation is not None and violation.kind == "edge_crossing"
    crossed = {frozenset(e) for e in violation.edges}
    assert frozenset((lat.id_of("p"), lat.id_of("u"))) in crossed
    assert frozenset((lat.id_of("q"), lat.id_of("v"))) in crossed
    # the independent intersection oracle agrees on that edge pair
    assert oracles.segments_cross(bad.point(lat.id_of("p")), bad.point(lat.id_of("u")),
                                  bad.point(lat.id_of("q")), bad.point(lat.id_of("v")))
    assert validate_diagram(hexagon) is None


@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=8, max_size=8),
       st.integers(min_value=0, max_value=3),
       st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4))
@settings(max_examples=120, deadline=None)
def test_segment_conflict_matches_oracle(xs, ybase, yoffs):
    pts = [(xs[2 * i], ybase + yoffs[i]) for i in range(4)]
    p1, q1, p2, q2 = pts
    if p1 == q1 or p2 == q2:
        return
    assert _segments_conflict(p1, q1, p2, q2) == oracles.segments_cross(p1, q1, p2, q2)


def assert_geometry_matches_reference(lat, xs):
    """validate_diagram and a fresh boundary walk agree with the rational
    references in tests/oracles.py."""
    diag = Diagram(lat, xs)
    want = oracles.drawing_violation(lat.names, lat.covers, diag.xcoord)
    assert validate_diagram(diag) == (want and DiagramViolation(*want))
    assert ((diag.boundary.left_chain, diag.boundary.right_chain)
            == oracles.boundary_chains(lat.n, lat.covers, diag.xcoord))


_GRADED_POOL = [generate(kind, params).lattice for kind, params in
                [("chain", (3,)), ("grid", (2, 3)), ("grid", (3, 3)),
                 ("diamond", (4,))]]
_GRADED_POOL += [generate("random-sps", [size], seed=size).lattice
                 for size in (7, 10, 12)]
# covers that skip heights, such as z < 1 in the pentagon, are where an
# element can lie inside an edge: endpoint touches and collinear overlaps
_SKIPPING_POOL = [build_lattice(covers) for covers in [
    [("0", "x"), ("x", "y"), ("y", "1"), ("0", "z"), ("z", "1")],
    [("0", "a"), ("a", "b"), ("b", "c"), ("c", "1"), ("0", "z"), ("z", "1")],
    [("0", "a"), ("0", "c"), ("c", "d"), ("d", "b"), ("a", "b"), ("a", "v"),
     ("v", "1"), ("b", "1")],
]]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_geometry_matches_rational_reference(data):
    lat = data.draw(st.one_of(st.sampled_from(_GRADED_POOL),
                              st.sampled_from(_SKIPPING_POOL)))
    height = lat.height
    levels = {}
    for v in range(lat.n):
        levels.setdefault(height[v], []).append(v)
    width = max(len(level) for level in levels.values())
    # few x values with mixed denominators, shared across levels, so that
    # points line up often; within a level they repeat only when allowed
    pool = data.draw(st.lists(st.fractions(-2, 2, max_denominator=6),
                              min_size=width, max_size=width + 3, unique=True))
    distinct = data.draw(st.booleans())
    xs = [None] * lat.n
    for level in levels.values():
        row = data.draw(st.lists(st.sampled_from(pool), min_size=len(level),
                                 max_size=len(level), unique=distinct))
        for v, x in zip(level, row):
            xs[v] = x
    long = [(a, b) for a, b in lat.covers if height[b] - height[a] > 1]
    if long and data.draw(st.booleans()):
        a, b = data.draw(st.sampled_from(long))
        v = data.draw(st.sampled_from(
            [v for v in range(lat.n) if height[a] < height[v] < height[b]]))
        xs[v] = xs[a] + (xs[b] - xs[a]) * Fraction(height[v] - height[a],
                                                   height[b] - height[a])
    assert_geometry_matches_reference(lat, xs)


def test_element_inside_an_edge_matches_rational_reference():
    pentagon, _, skew = _SKIPPING_POOL
    half, third = Fraction(1, 2), Fraction(1, 3)
    # y = (1/2, 2) lies inside z -> 1, from (1, 1) to (0, 3): an endpoint touch
    touch = [0, -1, half, 0, 1]
    # a -> v runs along a -> b, from (1/3, 1) to (-1, 3): a collinear overlap
    overlap = [0, third, 1, 1, -1, -third, 0]
    for lat, xs, edges in ((pentagon, touch, ((1, 2), (4, 3))),
                           (skew, overlap, ((1, 4), (1, 5)))):
        assert validate_diagram(Diagram(lat, xs)).edges == edges
        assert_geometry_matches_reference(lat, xs)


def test_geometry_matches_rational_reference_on_corpus(corpus, random_corpus_small):
    for _, diag in list(corpus) + list(random_corpus_small):
        assert_geometry_matches_reference(diag.lattice, diag.xcoord)
        assert validate_diagram(diag) is None


# -- boundaries --------------------------------------------------------------

def test_boundaries_diamond(m3):
    b = boundaries(m3)
    assert names_of(m3, b.left_chain) == ["0", "a", "1"]
    assert names_of(m3, b.right_chain) == ["0", "b", "1"]
    assert m3.lattice.names[b.u_l] == "a" and m3.lattice.names[b.u_r] == "b"


def test_boundaries_chain(c3):
    b = boundaries(c3)
    assert names_of(c3, b.left_corners) == ["b"] == names_of(c3, b.right_corners)
    assert b.u_l == b.u_r == c3.lattice.id_of("b")


def test_boundaries_grid():
    g = generate("grid", [3, 3])
    b = boundaries(g)
    assert g.lattice.names[b.u_l] == "0,2"
    assert g.lattice.names[b.u_r] == "2,0"


def test_boundary_chains_are_maximal(corpus):
    for name, diag in corpus:
        lat = diag.lattice
        for chain in (diag.boundary.left_chain, diag.boundary.right_chain):
            assert chain[0] == lat.bottom and chain[-1] == lat.top, name
            for a, b in zip(chain, chain[1:]):
                assert lat.is_cover(a, b), name


# -- rectangular / patch / slim ----------------------------------------------

def test_is_rectangular(c3, m3):
    assert is_rectangular(generate("grid", [3, 3]))
    assert not is_rectangular(c3)
    assert is_rectangular(m3)


def test_is_patch(b2, m3):
    assert is_patch(generate("chain", [2]))
    assert is_patch(b2)
    assert is_patch(m3)
    assert not is_patch(generate("grid", [3, 3]))


def test_patch_implies_rectangular_or_two_elements(corpus, random_corpus_small):
    for name, diag in list(corpus) + list(random_corpus_small):
        if is_patch(diag):
            assert is_rectangular(diag) or diag.lattice.n == 2, name


def test_is_slim(m3, c4):
    assert not is_slim(m3)
    assert is_slim(generate("grid", [3, 3]))
    assert is_slim(c4)


# -- eyes ----------------------------------------------------------------------

def test_find_eyes(m3, b2):
    assert [rec.label for _, rec in find_eyes(m3)] == ["m"]
    m4 = generate("diamond", [4])
    assert [rec.label for _, rec in find_eyes(m4)] == ["a2", "a3"]
    assert find_eyes(b2) == []


def test_slim_diamond(m3, b2):
    slimmed, records = slim(m3)
    assert is_isomorphic(slimmed.lattice, b2.lattice) is not None
    assert len(records) == 1 and records[0].slot == 1


def test_slim_m4(b2):
    slimmed, records = slim(generate("diamond", [4]))
    assert len(records) == 2
    assert is_isomorphic(slimmed.lattice, b2.lattice) is not None


def test_slim_already_slim():
    g = generate("grid", [3, 3])
    slimmed, records = slim(g)
    assert slimmed == g and records == []


def test_slim_output_properties(corpus, random_corpus_small):
    for name, diag in list(corpus) + list(random_corpus_small)[:60]:
        slimmed, _ = slim(diag)
        assert is_slim(slimmed) and find_eyes(slimmed) == [], name
        assert validate_diagram(slimmed) is None, name


def _slim_in_every_order(diag):
    eyes = find_eyes(diag)
    if not eyes:
        return [diag]
    out = []
    for m, _ in eyes:
        from latpatch.diagram import _without_element
        out.extend(_slim_in_every_order(_without_element(diag, m)))
    return out


def test_slim_order_does_not_matter(corpus):
    for name, diag in corpus:
        if diag.lattice.n > 10:
            continue
        reference, _ = slim(diag)
        for result in _slim_in_every_order(diag):
            assert is_isomorphic(result.lattice, reference.lattice) is not None, name


def test_restore_round_trip(corpus, random_corpus_small, m3):
    slimmed, records = slim(m3)
    back = restore_eyes(slimmed, records)
    assert is_isomorphic(back.lattice, m3.lattice) is not None
    for name, diag in list(corpus) + list(random_corpus_small)[:60]:
        slimmed, records = slim(diag)
        back = restore_eyes(slimmed, records)
        # the label identity is an isomorphism fixing every non-eye element
        lat, orig = back.lattice, diag.lattice
        assert set(lat.names) == set(orig.names), name
        got = {(lat.names[a], lat.names[b]) for a, b in lat.covers}
        want = {(orig.names[a], orig.names[b]) for a, b in orig.covers}
        assert got == want, name
        assert validate_diagram(back) is None, name


def test_restore_empty_is_identity(b2):
    assert restore_eyes(b2, []) == b2


def test_restore_missing_anchor(b2):
    bad = EyeRecord(lower="1", upper="0", slot=1, label="m")
    with pytest.raises(MissingAnchor):
        restore_eyes(b2, [bad])
    gone = EyeRecord(lower="0", upper="nope", slot=1, label="m")
    with pytest.raises(MissingAnchor):
        restore_eyes(b2, [gone])


# -- upper boundary, reflect, synthesis ----------------------------------------

def test_upper_left_boundary(b2, c3):
    g = generate("grid", [3, 3])
    assert names_of(g, upper_left_boundary(g)) == ["0,2", "1,2", "2,2"]
    assert names_of(b2, upper_left_boundary(b2)) == ["l", "1"]
    with pytest.raises(NotRectangular):
        upper_left_boundary(c3)


def test_reflect_swaps_corners(m3):
    mirrored = reflect(m3)
    assert mirrored.lattice.names[mirrored.boundary.u_l] == "b"
    assert mirrored.lattice.names[mirrored.boundary.u_r] == "a"
    assert reflect(mirrored) == m3


def test_reflect_preserves_predicates(corpus):
    for name, diag in corpus:
        mirrored = reflect(diag)
        assert validate_diagram(mirrored) is None, name
        assert is_rectangular(mirrored) == is_rectangular(diag), name
        assert is_patch(mirrored) == is_patch(diag), name
        assert is_slim(mirrored) == is_slim(diag), name


def test_synthesize_square():
    lat = build_lattice([("0", "l"), ("0", "r"), ("l", "1"), ("r", "1")])
    diag = synthesize_embedding(lat)
    assert diag is not None and validate_diagram(diag) is None


def test_synthesize_pentagon(n5):
    diag = synthesize_embedding(n5.lattice)
    assert diag is not None and validate_diagram(diag) is None


def test_synthesize_respects_bound(m3):
    with pytest.raises(SizeBoundExceeded):
        synthesize_embedding(m3.lattice, max_size=2)


def test_one_element_lattice_predicates():
    from latpatch import classify_subset
    one = Diagram(build_lattice([], elements=["x"]), [0])
    assert validate_diagram(one) is None
    assert not is_rectangular(one) and not is_patch(one)
    assert classify_subset(one.lattice, [0]).is_chain


def test_synthesize_reports_nonplanar():
    # the Boolean cube has order dimension 3: no drawing exists
    labels = [f"{i}{j}{k}" for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    covers = []
    for a in labels:
        for b in labels:
            if sum(x != y for x, y in zip(a, b)) == 1 and a < b:
                covers.append((a, b))
    cube = build_lattice(covers, elements=labels)
    assert synthesize_embedding(cube) is None
