from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import assert_same_lattice
from latpatch import (Diagram, DiagramViolation, EyeRecord, Lattice,
                      diagram, find_eyes, generate, is_isomorphic,
                      is_patch, is_rectangular, is_slim, rectangularize,
                      reflect, restore_eyes, slim, subdiagram,
                      synthesize_embedding, upper_left_boundary,
                      validate_diagram)
from latpatch.core import iter_bits
from latpatch.diagram import (_interval_rectangular, _middles, _scaled_points,
                              _segments_conflict, _slim)
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
    with pytest.raises(ValueError, match="one x coordinate per element"):
        Diagram(b2.lattice, [0, -1, 1])


class _Half(Fraction):
    """A `Fraction` subclass, which `Diagram` must turn into a `Fraction`."""


def test_diagram_coerces_every_coordinate_that_is_no_fraction(b2):
    lat = b2.lattice
    inputs = {
        "ints": [0, -1, 1, 0],
        "bools": [False, True, False, True],
        "floats": [0.5, -1.0, 1.25, 0.0],
        "ints and fractions": [0, Fraction(-1, 2), 1, Fraction(0)],
        "subclass": [_Half(1, 2), Fraction(-1), Fraction(1), Fraction(0)],
    }
    for name, xs in inputs.items():
        want = tuple(Fraction(x) for x in xs)
        for given_xs in (xs, tuple(xs), (x for x in xs)):
            got = Diagram(lat, given_xs).xcoord
            assert type(got) is tuple and got == want, name
            assert all(type(x) is Fraction for x in got), name
    # a tuple or list of Fractions keeps its very objects
    fractions = (Fraction(0), Fraction(-1, 2), Fraction(1, 2), Fraction(0))
    assert Diagram(lat, fractions).xcoord is fractions
    kept = Diagram(lat, list(fractions)).xcoord
    assert all(a is b for a, b in zip(kept, fractions))
    for xs in ([0, 1, 2], fractions[:3], (Fraction(k) for k in range(5)), []):
        with pytest.raises(ValueError, match="one x coordinate per element"):
            Diagram(lat, xs)


def test_a_diagram_prints_its_lattice(b2):
    assert repr(b2) == "Diagram(Lattice(4 elements, 4 covers))"
    assert repr(generate("chain", [4])) == "Diagram(Lattice(4 elements, 3 covers))"


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


def test_segments_with_a_shared_end_match_the_oracle():
    # every shared end o and other ends u, v on a small grid, in each of
    # the four ways the two segments can share o; u or v may be o itself
    grid = list(product(range(-2, 3), range(-2, 3)))
    kinds = set()
    for o, u, v in product(grid, repeat=3):
        cross = (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])
        dot = (u[0] - o[0]) * (v[0] - o[0]) + (u[1] - o[1]) * (v[1] - o[1])
        kinds.add("a point" if o in (u, v) else "apart" if cross
                  else "same way" if dot > 0 else "opposite")
        for segments in ((o, u, o, v), (u, o, v, o), (o, u, v, o), (u, o, o, v)):
            assert _segments_conflict(*segments) == oracles.segments_cross(*segments), (
                segments)
    assert kinds == {"apart", "same way", "opposite", "a point"}


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
_SKIPPING_POOL = [Lattice(covers) for covers in [
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


def test_edges_whose_x_ranges_touch_are_still_tested():
    pentagon = _SKIPPING_POOL[0]
    # z -> 1 runs up x = 0 through y = (0, 2), the upper end of x -> y, whose
    # x range [-1, 0] meets z -> 1's only at 0; y -> 1 overlaps z -> 1 later
    xs = [0, -1, 0, 0, 0]
    violation = validate_diagram(Diagram(pentagon, xs))
    assert violation.edges == ((1, 2), (4, 3))
    assert_geometry_matches_reference(pentagon, xs)


def test_geometry_matches_rational_reference_on_corpus(corpus, random_corpus_small):
    for _, diag in list(corpus) + list(random_corpus_small):
        assert_geometry_matches_reference(diag.lattice, diag.xcoord)
        assert validate_diagram(diag) is None


@pytest.mark.parametrize("kind, params, seed, tests", [("grid", [6, 6], 0, 50),
                                                       ("random-sps", [32], 7, 9)])
def test_sweep_stops_at_each_edge_top(kind, params, seed, tests, monkeypatch):
    # an edge (c, d) with c at the height of b meets (a, b) at most in b,
    # so the sweep tests no such pair
    diag = generate(kind, params, seed=seed)
    calls = []

    def counting(*points):
        calls.append(points)
        return _segments_conflict(*points)

    monkeypatch.setattr(diagram, "_segments_conflict", counting)
    assert validate_diagram(diag) is None
    assert len(calls) == tests


# -- boundaries --------------------------------------------------------------

def test_boundaries_diamond(m3):
    b = m3.boundary
    assert names_of(m3, b.left_chain) == ["0", "a", "1"]
    assert names_of(m3, b.right_chain) == ["0", "b", "1"]
    assert m3.lattice.names[b.u_l] == "a" and m3.lattice.names[b.u_r] == "b"


def test_boundaries_chain(c3):
    b = c3.boundary
    assert names_of(c3, b.left_corners) == ["b"] == names_of(c3, b.right_corners)
    assert b.u_l == b.u_r == c3.lattice.id_of("b")


def test_boundaries_grid():
    g = generate("grid", [3, 3])
    b = g.boundary
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


def test_interval_predicates_match_the_built_part(corpus, random_corpus_small, m3):
    diagrams = []
    for name, diag in corpus + random_corpus_small:
        slimmed, _ = slim(diag)
        if slimmed.lattice.n > 2:
            diagrams.append((f"hull of {name}", rectangularize(slimmed)[0]))
    # not rectangular, or not slim, as a whole
    diagrams += [(name, diag) for name, diag in corpus + random_corpus_small[:40]
                 if not (is_rectangular(diag) and is_slim(diag))]
    diagrams.append(("m3", m3))
    seen = {}
    for name, diag in diagrams:
        lat = diag.lattice
        points = _scaled_points(diag.xcoord, lat.height)
        for y in range(lat.n):
            for x in iter_bits(lat.up[y]):
                mask = lat.up[y] & lat.down[x]
                part = subdiagram(diag, iter_bits(mask))
                answers = (oracles.walked_interval_rectangular(lat, points, y, x),
                           _slim(lat, mask))
                assert answers == (is_rectangular(part), is_slim(part)), (name, y, x)
                seen[answers] = seen.get(answers, 0) + 1
    assert len(seen) == 4  # every combination of the two answers occurs


def test_the_drawing_free_part_test_equals_the_walked_one(glue_nodes):
    # every interval [y, x] of the hull of every node that decompose cuts
    counts = {True: 0, False: 0}
    for name, diag in glue_nodes:
        hull, _ = rectangularize(slim(diag)[0])
        lat = hull.lattice
        points = _scaled_points(hull.xcoord, lat.height)
        for y in range(lat.n):
            for x in iter_bits(lat.up[y]):
                walked = oracles.walked_interval_rectangular(lat, points, y, x)
                assert _interval_rectangular(lat, y, x) == walked, (name, y, x)
                counts[walked] += 1
    assert (len(glue_nodes), counts) == (1252, {True: 31820, False: 51866})


def test_is_slim(m3, c4):
    assert not is_slim(m3)
    assert is_slim(generate("grid", [3, 3]))
    assert is_slim(c4)


def test_middles_match_the_covering_squares(corpus, random_corpus_small):
    # every covering square o ≺ z ≺ i, found by scanning all triples, with
    # the full mask, no mask (-1), and each principal filter and ideal
    squares = 0
    for name, diag in corpus + random_corpus_small:
        lat = diag.lattice
        found = {}
        for o in range(lat.n):
            for z in range(lat.n):
                for i in range(lat.n):
                    if lat.is_cover(o, z) and lat.is_cover(z, i):
                        found.setdefault(o, {}).setdefault(i, []).append(z)
                        squares += 1
        for mask in [lat.full_mask, -1, *lat.up, *lat.down]:
            for o in range(lat.n):
                expected = {}
                for i, zs in found.get(o, {}).items():
                    if any(mask >> z & 1 for z in zs):
                        expected[i] = [z for z in zs if mask >> z & 1]
                got = _middles(lat, o, mask)
                assert {i: sorted(zs) for i, zs in got.items()} == expected, (name, o)
    assert squares > 1000


# -- eyes ----------------------------------------------------------------------

def test_find_eyes(m3, b2):
    assert [rec.label for _, rec in find_eyes(m3)] == ["m"]
    m4 = generate("diamond", [4])
    assert [rec.label for _, rec in find_eyes(m4)] == ["a2", "a3"]
    assert find_eyes(b2) == []


def test_find_eyes_matches_the_per_candidate_reference(corpus, random_corpus_small):
    diamonds = [(f"M_{k}", generate("diamond", [k])) for k in range(3, 41)]
    found = 0
    for name, diag in corpus + random_corpus_small + diamonds:
        eyes = find_eyes(diag)
        assert eyes == oracles.eyes_by_candidate(diag), name
        found += len(eyes)
    assert found > 800


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


def test_one_pass_slim_equals_removing_one_eye_per_round(corpus, random_corpus_small):
    # not graded: the eye b of [0, p] is also an atom of [0, i], left of the
    # eye d of [0, i], so removing b moves d's slot
    lat = Lattice([("0", "a"), ("0", "b"), ("0", "d"), ("0", "c"),
                   ("0", "e"), ("a", "p"), ("b", "p"), ("c", "p"),
                   ("p", "i"), ("d", "i"), ("e", "i")],
                  elements=["0", "a", "b", "d", "c", "e", "p", "i"])
    ungraded = Diagram(lat, [0, -2, -1, 0, 1, 2, -1, 0])
    # random-sps puts at most one eye into an interval; these put several
    # into one interval, or into two over one bottom, in every x order
    fans = Lattice([("0", a) for a in "abcdef"] + [(a, "i") for a in "abc"]
                   + [(a, "j") for a in "def"] + [("i", "1"), ("j", "1")],
                   elements=["0", *"abcdef", "i", "j", "1"])
    m5 = generate("diamond", [5]).lattice
    orders = [(f"fans {p}", Diagram(fans, [0, *p, -1, 1, 0])) for p in permutations(range(6))]
    orders += [(f"m5 {p}", Diagram(m5, [0, *p, 0])) for p in permutations(range(5))]
    with_eyes = 0
    for name, diag in corpus + random_corpus_small + [("ungraded", ungraded)] + orders:
        expected, expected_records = oracles.slim_by_rounds(diag)
        got, records = slim(diag)
        assert records == expected_records, name
        assert_same_lattice(got.lattice, expected.lattice, name)
        assert got.xcoord == expected.xcoord, name
        with_eyes += bool(records)
    assert with_eyes > 50
    assert [r.slot for r in slim(ungraded)[1]] == [1, 1]


def _slim_in_every_order(diag):
    eyes = find_eyes(diag)
    if not eyes:
        return [diag]
    out = []
    for m, _ in eyes:
        out.extend(_slim_in_every_order(oracles.without_element(diag, m)))
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
    lat = Lattice([("0", "l"), ("0", "r"), ("l", "1"), ("r", "1")])
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
    one = Diagram(Lattice([], elements=["x"]), [0])
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
    cube = Lattice(covers, elements=labels)
    assert synthesize_embedding(cube) is None
