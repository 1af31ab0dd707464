import gc
import random
import weakref
from collections import Counter
from itertools import combinations

import pytest

import oracles
from conftest import assert_same_lattice, distinct_nodes
from latpatch import (Diagram, EyeRecord, Lattice, classify_subset, decompose,
                      find_eyes, generate, interval, irreducibility, is_isomorphic,
                      is_semimodular, rectangularize, restore_eyes, slim,
                      subdiagram)
from latpatch.core import _Growing, _joint_colors, iter_bits
from latpatch.errors import (CycleDetected, EmptySet, MissingAnchor, NotALattice,
                             NotBounded, NotComparable)


def test_three_chain():
    lat = Lattice([("0", "a"), ("a", "1")])
    assert lat.n == 3
    assert lat.height[lat.id_of("1")] == 2
    assert lat.names[lat.bottom] == "0" and lat.names[lat.top] == "1"


def test_boolean_square_tables():
    lat = Lattice([("0", "l"), ("0", "r"), ("l", "1"), ("r", "1")])
    l, r = lat.id_of("l"), lat.id_of("r")
    assert lat.join(l, r) == lat.top
    assert lat.meet(l, r) == lat.bottom


def test_pentagon_is_a_lattice_with_oracle_tables():
    covers = [("0", "x"), ("x", "y"), ("y", "1"), ("0", "z"), ("z", "1")]
    elements = ["0", "x", "y", "z", "1"]
    lat = Lattice(covers, elements=elements)
    leq = oracles.closure_leq(covers, elements)
    for a in elements:
        for b in elements:
            i, j = lat.id_of(a), lat.id_of(b)
            assert lat.names[lat.join(i, j)] == oracles.lub(leq, elements, a, b)
            assert lat.names[lat.meet(i, j)] == oracles.glb(leq, elements, a, b)


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        Lattice([("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected, match="self-loop at 'a'"):
        Lattice([("0", "a"), ("a", "a"), ("a", "1")])


def test_not_bounded():
    with pytest.raises(NotBounded):
        Lattice([("a", "c"), ("b", "c")])  # two minimal elements


def test_redundant_cover_rejected():
    with pytest.raises(NotALattice) as err:
        Lattice([("0", "a"), ("a", "1"), ("0", "1")])
    assert err.value.witness == ("0", "1")
    with pytest.raises(NotALattice, match="uses an unknown element"):
        Lattice([("0", "a"), ("a", "1")], elements=["0", "1"])


def test_a_redundant_cover_names_the_lowest_id_between():
    # y (id 2) and x (id 3) lie between 0 and 1; x is the lower in the order
    with pytest.raises(NotALattice) as err:
        Lattice([("0", "x"), ("x", "y"), ("y", "1"), ("0", "1")],
                elements=["0", "1", "y", "x"])
    assert str(err.value) == "('0', '1') is not a cover: 'y' lies between"
    assert err.value.witness == ("0", "1")


def test_iter_bits_lists_the_set_bits_ascending():
    assert iter_bits(0) == []
    rng = random.Random(3)
    for bits in list(range(1, 70)) + [200, 1000, 3000] * 10:
        m = rng.getrandbits(bits) | 1 << (bits - 1)
        assert iter_bits(m) == [i for i in range(m.bit_length()) if m >> i & 1]


def test_missing_bound_rejected():
    covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
              ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]
    with pytest.raises(NotALattice) as err:
        Lattice(covers)
    assert err.value.witness is not None


def test_first_missing_bound_after_comparable_pairs():
    # ids 0, a, b, c, ...: every pair before (a, c) is comparable, and a, c
    # have the two minimal upper bounds x and y
    covers = [("0", "a"), ("a", "b"), ("0", "c"), ("b", "x"), ("c", "x"),
              ("b", "y"), ("c", "y"), ("x", "1"), ("y", "1")]
    with pytest.raises(NotALattice) as err:
        Lattice(covers)
    assert type(err.value) is NotALattice
    assert str(err.value) == "'a' and 'c' have no least upper bound"
    assert err.value.witness == ("a", "c")


def random_bounded_poset(rng, n):
    """Cover pairs of a random order on 0..n-1 with bottom 0 and top n-1."""
    below = [set() for _ in range(n)]  # strict down-sets
    for j in range(1, n):
        below[j].add(0)
        for i in range(1, j):
            if j == n - 1 or rng.random() < 0.4:
                below[j] |= below[i] | {i}
    return [(str(i), str(j)) for j in range(n) for i in below[j]
            if not any(i in below[k] for k in below[j])]


def test_meets_exist_whenever_joins_do():
    # the full build scans joins only: with one bottom, all joins give all
    # meets, so every down[a] & down[b] must be some element's down-mask
    rng = random.Random(5)
    built = rejected = 0
    for _ in range(3000):
        n = rng.randint(3, 9)
        covers = random_bounded_poset(rng, n)
        try:
            lat = Lattice(covers, elements=[str(i) for i in range(n)])
        except NotALattice:
            rejected += 1
            continue
        built += 1
        downs = set(lat.down)
        for a in range(n):
            for b in range(n):
                assert lat.down[a] & lat.down[b] in downs, covers
                assert lat.down[lat.meet(a, b)] == lat.down[a] & lat.down[b]
    assert built > 1000 and rejected > 100


def test_semimodular_examples(n5, m3):
    c5 = Lattice(list(zip("01234", "12345"))[:4])
    assert is_semimodular(c5)
    assert not is_semimodular(n5.lattice)
    assert is_semimodular(m3.lattice)


def test_semimodular_matches_oracle(corpus):
    for name, diag in corpus:
        lat = diag.lattice
        covers = [(lat.names[a], lat.names[b]) for a, b in lat.covers]
        assert is_semimodular(lat) == oracles.brute_semimodular(
            covers, list(lat.names)), name


def test_semimodular_join_and_meet_match_the_oracles_on_random_lattices():
    # random lattices, semimodular or not, where the local form and the
    # cover form, and mask lookups and the definitions, could differ
    rng = random.Random(11)
    counts = [0, 0]  # not semimodular, semimodular
    while min(counts) < 1000:
        n = rng.randint(3, 10)
        covers = random_bounded_poset(rng, n)
        elements = [str(i) for i in range(n)]
        try:
            lat = Lattice(covers, elements=elements)
        except NotALattice:
            continue
        expected = oracles.brute_semimodular(covers, elements)
        assert is_semimodular(lat) == expected, covers
        counts[expected] += 1
        leq = oracles.closure_leq(covers, elements)
        for a, b in combinations(range(n), 2):
            labels = str(a), str(b)
            assert lat.names[lat.join(a, b)] == oracles.lub(leq, elements, *labels)
            assert lat.names[lat.meet(a, b)] == oracles.glb(leq, elements, *labels)


def test_irreducibility(m3, c3):
    mid = m3.lattice.id_of("m")
    assert irreducibility(m3.lattice, mid).doubly_irreducible
    b2 = Lattice([("0", "l"), ("0", "r"), ("l", "1"), ("r", "1")])
    flags = irreducibility(b2, b2.bottom)
    assert not (flags.join_irreducible or flags.meet_irreducible
                or flags.doubly_irreducible)
    assert irreducibility(c3.lattice, c3.lattice.id_of("b")).doubly_irreducible


def test_interval_of_grid_is_product():
    from latpatch import generate
    g = generate("grid", [3, 3]).lattice
    got = interval(g, g.id_of("1,0"), g.id_of("2,2"))
    covers, elements = oracles.product_chain_covers(2, 3)
    got_covers = [(got.names[a], got.names[b]) for a, b in got.covers]
    assert oracles.brute_isomorphic(got_covers, list(got.names), covers, elements)


def test_interval_trivial_cases(c4):
    lat = c4.lattice
    assert interval(lat, lat.bottom, lat.top) == lat.restrict(range(lat.n))
    assert interval(lat, lat.id_of("a"), lat.id_of("a")).n == 1
    with pytest.raises(NotComparable):
        interval(Lattice([("0", "l"), ("0", "r"), ("l", "1"), ("r", "1")]),
                 1, 2)


def test_classify_subset(c3, b2):
    lat = c3.lattice
    roles = classify_subset(lat, [lat.id_of("0"), lat.id_of("b")])
    assert roles.is_ideal and roles.is_chain and not roles.is_filter
    lat = b2.lattice
    roles = classify_subset(lat, [lat.id_of("l"), lat.id_of("1")])
    assert roles.is_filter and roles.is_chain
    roles = classify_subset(lat, [lat.id_of("l"), lat.id_of("r")])
    assert not (roles.is_ideal or roles.is_filter or roles.is_chain)
    with pytest.raises(EmptySet):
        classify_subset(lat, [])


def test_classify_interval_members_is_sublattice(corpus):
    for name, diag in corpus:
        lat = diag.lattice
        members = list(iter_bits(lat.up[lat.bottom] & lat.down[lat.top]))
        assert classify_subset(lat, members).is_sublattice, name


def subset_roles_reference(lat):
    """(ideal, filter, chain) for every nonempty subset of ids, straight
    from the labeled covers."""
    covers = [(lat.names[a], lat.names[b]) for a, b in lat.covers]
    elements = list(lat.names)
    leq = oracles.closure_leq(covers, elements)
    ideals, filters = oracles.ideals_and_filters(leq, elements)
    ideals = {frozenset(map(lat.id_of, p)) for p in ideals}
    filters = {frozenset(map(lat.id_of, p)) for p in filters}
    for k in range(1, lat.n + 1):
        for members in map(frozenset, combinations(range(lat.n), k)):
            chain = all((lat.names[a], lat.names[b]) in leq
                        or (lat.names[b], lat.names[a]) in leq
                        for a, b in combinations(members, 2))
            yield members, (members in ideals, members in filters, chain)


def test_subset_roles_match_the_definitions(corpus, random_corpus_small, n5, hexagon):
    checked = 0
    for name, diag in corpus + random_corpus_small + [("n5", n5), ("hexagon", hexagon)]:
        lat = diag.lattice
        if lat.n > 8:
            continue
        for members, expected in subset_roles_reference(lat):
            roles = classify_subset(lat, members)
            assert (roles.is_ideal, roles.is_filter, roles.is_chain) == expected, (
                name, lat.labels(members))
            checked += 1
    assert checked > 9000


def test_isomorphic_relabeled_square(b2):
    other = Lattice([("bot", "p"), ("bot", "q"), ("p", "top"), ("q", "top")])
    send = is_isomorphic(b2.lattice, other)
    assert send is not None
    image = {(send[a], send[b]) for a, b in b2.lattice.covers}
    assert image == set(other.covers)


def test_isomorphic_distinguishes_same_size():
    c5 = Lattice(list(zip("01234", "12345"))[:4])
    square_with_top = Lattice(
        [("0", "l"), ("0", "r"), ("l", "c"), ("r", "c"), ("c", "1")])
    assert is_isomorphic(c5, square_with_top) is None


def test_isomorphic_refuses_equal_counts_with_different_colors():
    # five elements and five covers each, the square at the bottom of one
    # and at the top of the other: the refined colors already differ
    low = Lattice([("0", "x"), ("x", "a"), ("x", "b"), ("a", "1"), ("b", "1")])
    high = Lattice([("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("c", "1")])
    c1, c2 = _joint_colors(low, high)
    assert sorted(c1) != sorted(c2)
    assert is_isomorphic(low, high) is None and is_isomorphic(high, low) is None


def crown(cycles):
    """A bottom, a top and, for each k in `cycles`, k atoms and k coatoms,
    the i-th coatom covering the i-th and the next atom around its cycle.
    Two atoms share at most one coatom when every k is 3 or more, so every
    pair has a join and this is a lattice."""
    covers, start = [], 0
    for k in cycles:
        for i in range(start, start + k):
            nxt = start + (i + 1 - start) % k
            covers += [("0", f"a{i}"), (f"a{i}", f"c{i}"), (f"a{nxt}", f"c{i}"),
                       (f"c{i}", "1")]
        start += k
    return Lattice(covers)


def test_isomorphic_refuses_equal_colors_with_no_isomorphism():
    # no two lattices of at most 8 elements (`oracles.small_lattices`) share
    # their refined colors without being isomorphic, but these crowns do:
    # each atom has two upper covers and each coatom two lower ones, and the
    # atoms and coatoms make one 12-cycle in one and two 6-cycles in the
    # other, so only the search refuses them
    one, two = crown([6]), crown([3, 3])
    assert (one.n, len(one.covers)) == (two.n, len(two.covers)) == (14, 24)
    c1, c2 = _joint_colors(one, two)
    assert sorted(c1) == sorted(c2)
    assert is_isomorphic(one, two) is None and is_isomorphic(two, one) is None
    assert is_isomorphic(one, crown([6])) is not None


def test_isomorphic_long_chains_need_no_recursion():
    # one full build; the chains compared are intervals of it with different
    # labels, derived without another n² build
    lat = Lattice([(f"c{i}", f"c{i + 1}") for i in range(2000)])
    for n in (1500, 2000):
        low = interval(lat, 0, lat.id_of(f"c{n - 1}"))
        high = interval(lat, lat.id_of(f"c{2001 - n}"), lat.top)
        assert low.names != high.names
        assert is_isomorphic(low, high) == {v: v for v in range(n)}


def test_every_isomorphism_takes_covers_onto_covers():
    # `is_isomorphic` keeps no check of the finished map: each map it returns
    # must send the covers of one lattice onto those of the other, bijectively
    def checked(lat1, lat2):
        send = is_isomorphic(lat1, lat2)
        if send is not None:
            assert sorted(send) == sorted(send.values()) == list(range(lat2.n))
            image = [(send[a], send[b]) for a, b in lat1.covers]
            assert sorted(image) == sorted(lat2.covers)
        return send

    rng = random.Random(5)
    found = Counter()
    for n in range(2, 8):
        lattices = [Lattice(covers, elements=labels)
                    for labels, covers in oracles.small_lattices(n)]
        for lat1, lat2 in combinations(lattices, 2):
            if len(lat1.covers) == len(lat2.covers):
                assert checked(lat1, lat2) is None and checked(lat2, lat1) is None
                found["refused"] += 1
        for lat in lattices:
            order = rng.sample(range(lat.n), lat.n)
            renamed = {v: f"v{k}" for k, v in enumerate(order)}
            other = Lattice([(renamed[a], renamed[b]) for a, b in lat.covers],
                            elements=[renamed[v] for v in rng.sample(order, lat.n)])
            assert checked(lat, other) is not None and checked(other, lat) is not None
            found["relabeled"] += 1
    assert found == {"refused": 508, "relabeled": 77}


def test_isomorphic_reflexive_and_symmetric(corpus):
    for name, diag in corpus:
        assert is_isomorphic(diag.lattice, diag.lattice) is not None, name
    for (n1, d1), (n2, d2) in combinations(corpus[:8], 2):
        fwd = is_isomorphic(d1.lattice, d2.lattice)
        bwd = is_isomorphic(d2.lattice, d1.lattice)
        assert (fwd is None) == (bwd is None), (n1, n2)


def test_join_is_unique_minimal_upper_bound(corpus, random_corpus_small):
    """On full builds and on derived lattices: the corpus's tree nodes, its
    slimmed lattices with eyes and two drawn hulls."""
    lattices = [(name, diag.lattice) for name, diag in corpus]
    for name, diag in corpus:
        lattices += [(f"{name} node", node.diagram.lattice)
                     for node in distinct_nodes(decompose(diag)[0])]
    assert len(lattices) == 15 + 73
    slims = [(f"{name} slim", slimmed.lattice)
             for name, diag in corpus + random_corpus_small
             for slimmed, eyes in [slim(diag)] if eyes]
    assert len(slims) == 54
    hulls = [(f"{name} hull", rectangularize(diag)[0].lattice)
             for name, diag in [("chain5", generate("chain", [5])),
                                ("sps[24]#0", generate("random-sps", [24], seed=0))]]
    assert [lat.n for _, lat in hulls] == [8, 53]
    for name, lat in lattices + slims + hulls:
        for a in range(lat.n):
            for b in range(lat.n):
                j = lat.join(a, b)
                uppers = [z for z in range(lat.n) if lat.leq(a, z) and lat.leq(b, z)]
                assert j in uppers and all(lat.leq(j, z) for z in uppers), name
                m = lat.meet(a, b)
                lowers = [z for z in range(lat.n) if lat.leq(z, a) and lat.leq(z, b)]
                assert m in lowers and all(lat.leq(z, m) for z in lowers), name
                assert lat.is_cover(a, b) == ((a, b) in lat.covers), name


def test_semimodular_corpus_is_graded(corpus):
    for name, diag in corpus:
        lat = diag.lattice
        for a, b in lat.covers:
            assert lat.height[b] == lat.height[a] + 1, name


# -- lattices derived by adding one doubly irreducible element -----------------

def full_build_plus(lat, a, c, label):
    """`lat` plus `label` with a < label < c, built and validated from scratch."""
    covers = [(lat.names[u], lat.names[v]) for u, v in lat.covers]
    covers += [(lat.names[a], label), (label, lat.names[c])]
    return Lattice(covers, elements=list(lat.names) + [label])


def test_derived_extension_equals_full_build(corpus, random_corpus_small, replay):
    checked = 0
    for name, diag in corpus + random_corpus_small:
        slimmed, _ = slim(diag)
        if slimmed.lattice.n <= 2:
            continue
        hull, steps = rectangularize(slimmed)
        after = slimmed
        for (before, after), step in zip(replay(slimmed, steps), steps):
            lat = before.lattice
            full = full_build_plus(lat, lat.id_of(step.a), lat.id_of(step.c), step.t)
            assert_same_lattice(after.lattice, full, name)
            checked += 1
        assert after == hull, name
    assert checked > 100


def test_hull_equals_the_fold_of_full_builds(corpus, random_corpus_small):
    checked = 0
    for name, diag in corpus + random_corpus_small:
        slimmed, _ = slim(diag)
        if slimmed.lattice.n <= 2:
            continue
        hull, steps = rectangularize(slimmed)
        folded = slimmed.lattice
        for step in steps:
            folded = full_build_plus(folded, folded.id_of(step.a),
                                     folded.id_of(step.c), step.t)
        assert_same_lattice(hull.lattice, folded, name)
        fresh = Diagram(hull.lattice, hull.xcoord)
        assert hull.boundary == fresh.boundary, name
        checked += len(steps) > 0
    assert checked > 100


def test_rectangularize_builds_one_lattice_and_one_diagram(monkeypatch):
    slimmed, _ = slim(generate("random-sps", [30], seed=7))
    real_trusted, real_diagram = Lattice._trusted, Diagram.__init__
    built = []

    def counting_trusted(*args, **kwargs):
        built.append("lattice")
        return real_trusted(*args, **kwargs)

    def counting_diagram(self, *args, **kwargs):
        built.append("diagram")
        real_diagram(self, *args, **kwargs)

    for base in (generate("chain", [4]), slimmed):
        built.clear()
        monkeypatch.setattr(Lattice, "_trusted", staticmethod(counting_trusted))
        monkeypatch.setattr(Lattice, "__init__", None)  # no full build either
        monkeypatch.setattr(Diagram, "__init__", counting_diagram)
        hull, steps = rectangularize(base)
        monkeypatch.undo()
        assert len(steps) >= 2
        assert sorted(built) == ["diagram", "lattice"]


def test_dropped_lattice_needs_no_cycle_collector():
    lat = Lattice([("0", "a"), ("a", "b"), ("b", "1")])
    grown = _Growing(lat)
    grown.add(lat.bottom, lat.id_of("b"))
    derived = grown.lattice(lat.names + ("t",))
    # a hull's lattice comes from the same freeze
    drawn, steps = rectangularize(generate("chain", [5]))
    hull = drawn.lattice
    assert steps and hull.n > 5
    assert all(x.join(x.bottom, x.top) == x.top and x.meet(x.bottom, x.top) == x.bottom
               for x in (lat, derived, hull))
    refs = [weakref.ref(lat), weakref.ref(derived), weakref.ref(hull)]
    gc.disable()
    try:
        del lat, derived, grown, drawn, hull
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


# -- lattices derived as intervals and by removing or inserting an eye ---------

def full_build_restrict(lat, members):
    """The sublattice on `members`, covers recomputed and validated from scratch."""
    members = sorted(members)
    mask = lat.mask_of(members)
    covers = [(lat.names[u], lat.names[v]) for u in members for v in members
              if lat.lt(u, v) and not lat.up[u] & lat.down[v] & mask
              & ~(1 << u | 1 << v)]
    return Lattice(covers, elements=[lat.names[v] for v in members])


def full_build_minus(lat, v):
    """`lat` without v, built and validated from scratch."""
    covers = [(lat.names[a], lat.names[b]) for a, b in lat.covers if v not in (a, b)]
    return Lattice(covers, elements=[x for u, x in enumerate(lat.names) if u != v])


def test_derived_interval_equals_full_build(corpus, random_corpus_small, n5,
                                            hexagon, monkeypatch):
    full_builds = []
    real_init = Lattice.__init__

    def counting_init(self, *args, **kwargs):
        full_builds.append(1)
        real_init(self, *args, **kwargs)

    # N5, two stacked N5s and the hexagon are not graded: heights inside an
    # interval are not the ambient heights shifted
    n5_twice = Lattice([("0", "x"), ("x", "y"), ("y", "1"), ("0", "z"),
                        ("z", "1"), ("1", "x2"), ("x2", "y2"), ("y2", "2"),
                        ("1", "z2"), ("z2", "2")])
    lattices = [(name, diag.lattice) for name, diag in corpus + random_corpus_small]
    lattices += [("n5", n5.lattice), ("hexagon", hexagon.lattice),
                 ("n5 twice", n5_twice)]
    checked = 0
    for name, lat in lattices:
        for y in range(lat.n):
            for x in iter_bits(lat.up[y]):
                members = list(iter_bits(lat.up[y] & lat.down[x]))
                full = full_build_restrict(lat, members)
                monkeypatch.setattr(Lattice, "__init__", counting_init)
                derived = lat.restrict(reversed(members))
                monkeypatch.undo()
                assert_same_lattice(derived, full, (name, y, x))
                checked += 1
    assert not full_builds
    assert checked > 5000


def test_non_interval_subset_is_built_in_full(b2, c3, c4, monkeypatch):
    monkeypatch.setattr(Lattice, "_derived", None)  # never reached
    square = b2.lattice
    bottom, l, top = square.id_of("0"), square.id_of("l"), square.id_of("1")
    chain = square.restrict([bottom, l, top])  # a sublattice, not an interval
    assert_same_lattice(chain, Lattice([("0", "l"), ("l", "1")]), "chain")
    grid = generate("grid", [3, 3]).lattice
    corners = [grid.id_of(x) for x in ("0,0", "2,0", "0,2", "2,2")]
    assert_same_lattice(grid.restrict(corners),
                        full_build_restrict(grid, corners), "corners")
    lat = c4.lattice
    assert_same_lattice(lat.restrict([lat.bottom, lat.top]),
                        full_build_restrict(lat, [lat.bottom, lat.top]), "ends")
    cases = [
        (square, [l, square.id_of("r")], NotBounded),  # two minimal elements
        (square, [bottom, l, square.id_of("r")], NotBounded),
        (lat, [], NotBounded),
        (lat, [lat.bottom, lat.bottom, lat.top], ValueError),  # repeated id
    ]
    for base, members, error in cases:
        with pytest.raises(error) as full:
            full_build_restrict(base, members)
        with pytest.raises(error) as derived:
            base.restrict(members)
        assert str(derived.value) == str(full.value), members
    # the ends of the 3-element chain restrict to a 2-chain whose one cover
    # is no cover of the chain
    ends = [c3.lattice.bottom, c3.lattice.top]
    with pytest.raises(ValueError, match="does not inherit the ambient covers"):
        subdiagram(c3, ends)


def test_derived_eye_removal_equals_full_build(corpus, random_corpus_small):
    checked = 0
    for name, diag in corpus + random_corpus_small:
        cur = diag
        while True:
            eyes = find_eyes(cur)
            if not eyes:
                break
            m, _ = eyes[0]
            lat = cur.lattice
            derived = lat._derived([v for v in range(lat.n) if v != m],
                                   lat.bottom, lat.top)
            assert_same_lattice(derived, full_build_minus(lat, m), name)
            cur = Diagram(derived, cur.xcoord[:m] + cur.xcoord[m + 1:])
            checked += 1
        assert cur == slim(diag)[0], name
    assert checked > 50


def insert_eye_by_full_build(diag, rec):
    """`diag` with the eye `rec` put back at its slot, its lattice built and
    validated from scratch."""
    lat, xs = diag.lattice, diag.xcoord
    lo, hi = lat.id_of(rec.lower), lat.id_of(rec.upper)
    mids = sorted((z for z in lat.upper_covers[lo] if lat.is_cover(z, hi)),
                  key=xs.__getitem__)
    full = Lattice([(lat.names[a], lat.names[b]) for a, b in lat.covers]
                   + [(rec.lower, rec.label), (rec.label, rec.upper)],
                   elements=lat.names + (rec.label,))
    return Diagram(full, xs + ((xs[mids[rec.slot - 1]] + xs[mids[rec.slot]]) / 2,))


def test_insert_middle_equals_full_build(corpus, random_corpus_small):
    # `restore_eyes` grows one lattice for all of its records; the
    # reference puts the eyes back one at a time, each by a full build
    checked = 0
    diamonds = [(f"M{k}", generate("diamond", [k])) for k in (7, 12)]
    for name, diag in corpus + random_corpus_small + diamonds:
        slimmed, records = slim(diag)
        reference = slimmed
        for k in reversed(range(len(records))):  # records[k:] replays records[k] last
            reference = insert_eye_by_full_build(reference, records[k])
            restored = restore_eyes(slimmed, records[k:])
            assert_same_lattice(restored.lattice, reference.lattice, name)
            assert restored.xcoord == reference.xcoord, name
            checked += 1
    assert checked > 50


def test_insert_middle_errors(b2, m3):
    cases = [
        (b2, EyeRecord("0", "nope", 1, "m"), "anchor of 'm' is gone"),
        (b2, EyeRecord("0", "1", 1, "l"), "label 'l' already in use"),
        (b2, EyeRecord("1", "0", 1, "m"), "'1' no longer lies below '0'"),
        (b2, EyeRecord("0", "l", 1, "m"),
         "['0', 'l'] is not an interval that can host 'm' at slot 1"),
        (b2, EyeRecord("0", "1", 2, "m"),
         "['0', '1'] is not an interval that can host 'm' at slot 2"),
        (m3, EyeRecord("0", "1", 0, "e"),
         "['0', '1'] is not an interval that can host 'e' at slot 0"),
    ]
    for diag, rec, message in cases:
        with pytest.raises(MissingAnchor) as info:
            restore_eyes(diag, [rec])
        assert str(info.value) == message
        assert info.value.record == rec
    # a later record fails against the eyes already put back
    first = EyeRecord("0", "1", 1, "m")
    later_cases = [
        (EyeRecord("0", "1", 2, "m"), "label 'm' already in use"),
        (EyeRecord("m", "0", 1, "e"), "'m' no longer lies below '0'"),
        (EyeRecord("0", "1", 3, "e"),
         "['0', '1'] is not an interval that can host 'e' at slot 3"),
    ]
    for later, message in later_cases:
        with pytest.raises(MissingAnchor) as info:
            restore_eyes(b2, [later, first])
        assert str(info.value) == message
        assert info.value.record == later
    assert restore_eyes(b2, [EyeRecord("0", "1", 2, "e"), first]).lattice.n == 6


def test_dropped_derived_lattices_need_no_cycle_collector(m3):
    grid = generate("grid", [3, 3]).lattice
    part = grid.restrict(iter_bits(grid.down[grid.id_of("2,1")]))
    lat = m3.lattice
    smaller = lat._derived([v for v in range(lat.n) if v != lat.id_of("m")],
                           lat.bottom, lat.top)
    assert all(x.join(x.bottom, x.top) == x.top and x.meet(x.bottom, x.top) == x.bottom
               for x in (part, smaller))
    refs = [weakref.ref(part), weakref.ref(smaller)]
    gc.disable()
    try:
        del part, smaller
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
