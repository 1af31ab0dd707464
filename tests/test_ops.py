from itertools import combinations

import pytest

import oracles
from conftest import distinct_nodes, ladder_inputs
from latpatch import (Diagram, GluingWitness, choose_x, decompose,
                      decompose_at, find_extension_sites, generate,
                      glue_over_chain, is_isomorphic, is_patch, is_rectangular,
                      is_slim, one_step_extension, rectangularize,
                      restrict_gluing, slim, upper_left_boundary,
                      validate_diagram, validate_witness, witness_from_cut)
import latpatch.diagram
import latpatch.ops
from latpatch import Lattice, subdiagram
from latpatch.core import irreducibility, iter_bits
from latpatch.diagram import _boundary_data
from latpatch.errors import (AssertionFailed, BadX, ChainWasSingletonT,
                             EmbeddingFailed, ImproperWitness, InvalidSite,
                             IsPatch, IterationBoundExceeded, NotAChain,
                             NotAFilter, NotAnIdeal, NotIso, NotRectangular,
                             StuckNotRectangular)
from latpatch.ops import (_cascades, _corners, _drawn_hull, _Hull, _pull_back,
                          _site_process, _sites)


def site_names(diag, sites):
    names = diag.lattice.names
    return [(names[a], names[b], names[c], side) for a, b, c, side in sites]


def witness_of(diag, a_labels, b_labels):
    lat = diag.lattice
    a = frozenset(lat.id_of(x) for x in a_labels)
    b = frozenset(lat.id_of(x) for x in b_labels)
    return GluingWitness(lat, a, b, a & b)


# -- glue_over_chain -----------------------------------------------------------

def test_glue_stacks_two_edges_into_chain():
    c2a, c2b = generate("chain", [2]), generate("chain", [2])
    glued = glue_over_chain(c2a, c2b, {"1": "0"})
    assert glued.lattice.n == 3
    assert is_isomorphic(glued.lattice, generate("chain", [3]).lattice) is not None


def test_glue_squares_over_two_chain(b2):
    other = Diagram(b2.lattice, b2.xcoord)
    glued = glue_over_chain(b2, other, {"l": "0", "1": "l"})
    assert glued.lattice.n == 6
    assert is_slim(glued) and is_rectangular(glued)
    assert validate_diagram(glued) is None


def test_glue_of_cut_parts_rebuilds_grid():
    g = generate("grid", [2, 3])
    cut = decompose_at(g, *choose_x(g))
    chain_labels = [g.lattice.names[v] for v in cut.chain]
    glued = glue_over_chain(cut.bottom_part, cut.top_part,
                            {x: x for x in chain_labels})
    assert is_isomorphic(glued.lattice, g.lattice) is not None


def test_glue_onto_interior_chain_needs_synthesis(m3, b2):
    # {m, 1} is a filter-chain whose lower end is drawn between the other
    # atoms, so no rigid shift of the upper piece can avoid a crossing
    glued = glue_over_chain(m3, b2, {"m": "0", "1": "l"})
    assert glued.lattice.n == 7 and validate_diagram(glued) is None
    with pytest.raises(EmbeddingFailed):
        glue_over_chain(m3, b2, {"m": "0", "1": "l"}, max_synth=0)


def test_glue_refuses_an_invalid_lower_drawing(b2):
    # the gluing checks each candidate only above the chain it glues over,
    # so a violation below it would go unseen: the lower piece is checked
    # once, and an invalid drawing is refused with its violation named
    shared = Diagram(b2.lattice, [0, 0, 0, 1])  # l and r at one point
    with pytest.raises(EmbeddingFailed, match="invalid: 'l' and 'r' share"):
        glue_over_chain(shared, generate("chain", [2]), {"1": "0"})


def test_glue_role_errors(b2):
    other = Diagram(b2.lattice, b2.xcoord)
    with pytest.raises(NotAFilter):
        glue_over_chain(b2, other, {"0": "0"})
    with pytest.raises(NotAnIdeal):
        glue_over_chain(b2, other, {"1": "1"})
    with pytest.raises(NotAChain):
        glue_over_chain(b2, other, {})
    with pytest.raises(NotIso):
        glue_over_chain(b2, other, {"1": "missing"})
    with pytest.raises(NotIso, match="not injective"):
        glue_over_chain(b2, other, {"l": "1", "1": "1"})
    with pytest.raises(NotIso):
        glue_over_chain(b2, other, {"l": "l", "1": "0"})  # order reversed


def test_glue_rejects_overlaps_that_are_no_chain(b2, c4):
    # all of b2 is a filter (↑0) and an ideal (↓1), but no chain
    with pytest.raises(NotAChain, match="domain"):
        glue_over_chain(b2, c4, {"0": "0", "l": "a", "r": "b", "1": "1"})
    with pytest.raises(NotAChain, match="image"):
        glue_over_chain(c4, b2, {"0": "0", "a": "l", "b": "r", "1": "1"})


# -- witnesses -------------------------------------------------------------------

def nonempty_subsets(n):
    return [frozenset(c) for k in range(1, n + 1) for c in combinations(range(n), k)]


def test_validate_witness_accepts_exactly_the_reference_witnesses(
        corpus, random_corpus_small, n5, monkeypatch):
    def no_bound(self, a, b):
        raise AssertionError("validate_witness looked up a join or meet")

    # ideals and filters are decided by their generators
    monkeypatch.setattr(Lattice, "join", no_bound)
    monkeypatch.setattr(Lattice, "meet", no_bound)
    seen = set()
    reasons = set()
    for name, diag in corpus + random_corpus_small + [("n5", n5)]:
        covers = tuple((diag.lattice.names[a], diag.lattice.names[b])
                       for a, b in diag.lattice.covers)
        if diag.lattice.n > 5 or covers in seen:
            continue
        seen.add(covers)
        lat = diag.lattice
        expected = {(frozenset(map(lat.id_of, a)), frozenset(map(lat.id_of, b)))
                    for a, b, _ in oracles.gluing_witnesses(list(covers),
                                                            list(lat.names))}
        subsets = nonempty_subsets(lat.n)
        for a in subsets:
            for b in subsets:
                reason = validate_witness(GluingWitness(lat, a, b, a & b))
                reasons.add(reason)
                assert (reason is None) == ((a, b) in expected), (
                    name, lat.labels(a), lat.labels(b), reason)
        every = frozenset(range(lat.n))
        for a, b in ((frozenset(), every), (every, frozenset())):
            assert validate_witness(GluingWitness(lat, a, b, a & b)) == "empty part"
    assert len(seen) > 10
    assert reasons == {None, "A is not an ideal", "B is not a filter",
                       "overlap is empty", "overlap is not a chain",
                       "A ∪ B does not cover the lattice", "witness is not proper"}


def test_validate_witness_gives_the_reference_reasons(corpus, random_corpus_small, n5):
    # every triple of subsets, C too, against the clauses on masks
    seen = set()
    reasons = set()
    for name, diag in corpus + random_corpus_small + [("n5", n5)]:
        lat = diag.lattice
        if lat.n > 5 or lat.covers in seen:
            continue
        seen.add(lat.covers)
        subsets = [frozenset()] + nonempty_subsets(lat.n)
        for a in subsets:
            for b in subsets:
                for c in subsets:
                    w = GluingWitness(lat, a, b, c)
                    reason = validate_witness(w)
                    reasons.add(reason)
                    assert reason == oracles.witness_reason(w), (
                        name, lat.labels(a), lat.labels(b), lat.labels(c))
    assert len(seen) > 5
    assert reasons == {None, "empty part", "A is not an ideal", "B is not a filter",
                       "C is not A ∩ B", "overlap is empty", "overlap is not a chain",
                       "A ∪ B does not cover the lattice", "witness is not proper"}


# -- extension sites and one-step extensions ------------------------------------

def test_sites_on_chain(c3):
    assert site_names(c3, find_extension_sites(c3)) == [
        ("0", "b", "1", "left"), ("0", "b", "1", "right")]


def test_sites_on_grid_are_empty():
    assert find_extension_sites(generate("grid", [2, 3])) == []


def test_sites_on_four_chain(c4):
    got = site_names(c4, find_extension_sites(c4))
    assert got == [("0", "a", "b", "left"), ("a", "b", "1", "left"),
                   ("0", "a", "b", "right"), ("a", "b", "1", "right")]


def test_extension_of_three_chain_is_square(c3, b2):
    after, step = one_step_extension(c3, find_extension_sites(c3)[0])
    assert is_isomorphic(after.lattice, b2.lattice) is not None
    assert step.side == "left" and step.a == "0" and step.c == "1"


def test_extension_of_four_chain(c4, b2):
    site = find_extension_sites(c4)[0]
    after, step = one_step_extension(c4, site)
    assert after.lattice.n == 5
    lat = after.lattice
    below_b = lat.restrict(iter_bits(lat.down[lat.id_of("b")]))
    assert is_isomorphic(below_b, b2.lattice) is not None


def test_extension_rejects_bad_site():
    g = generate("grid", [2, 3])
    lat = g.lattice
    with pytest.raises(InvalidSite):
        one_step_extension(g, (lat.bottom, lat.id_of("0,1"), lat.id_of("0,2"),
                               "left"))


def test_extension_preserves_class_on_corpus(corpus):
    for name, diag in corpus:
        slimmed, _ = slim(diag)
        for site in find_extension_sites(slimmed):
            after, step = one_step_extension(slimmed, site)
            assert validate_diagram(after) is None, name
            from latpatch import is_semimodular
            assert is_semimodular(after.lattice), name
            assert is_slim(after), name
            t = after.lattice.id_of(step.t)
            assert irreducibility(after.lattice, t).doubly_irreducible, name
            chain = (after.boundary.left_chain if site[3] == "left"
                     else after.boundary.right_chain)
            assert t in chain, name
            # removing t again re-derives the original lattice exactly
            lat = after.lattice
            assert lat.restrict([v for v in range(lat.n) if v != t]) \
                == slimmed.lattice, name


def test_site_check_agrees_with_the_site_scan(corpus):
    for name, diag in corpus:
        slimmed, _ = slim(diag)
        sites = find_extension_sites(slimmed)
        n = slimmed.lattice.n
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for side in ("left", "right", "up"):
                        site = (a, b, c, side)
                        if site in sites:
                            after, _ = one_step_extension(slimmed, site)
                            assert after.lattice.n == n + 1, name
                        else:
                            with pytest.raises(InvalidSite):
                                one_step_extension(slimmed, site)
        for site in sites:
            with pytest.raises(InvalidSite):
                one_step_extension(slimmed, list(site))
            with pytest.raises(InvalidSite):
                one_step_extension(slimmed, site[:3])


def test_carried_boundary_matches_a_fresh_walk(corpus, random_corpus_small, replay):
    for name, diag in corpus + random_corpus_small:
        slimmed, _ = slim(diag)
        extended = [one_step_extension(slimmed, site)[0]
                    for site in find_extension_sites(slimmed)]
        if slimmed.lattice.n > 2:
            hull, steps = rectangularize(slimmed)
            replayed = [after for _, after in replay(slimmed, steps)]
            assert not steps or replayed[-1] == hull, name
            extended += replayed
        for after in extended:
            fresh = Diagram(after.lattice, after.xcoord)
            assert after.boundary == fresh.boundary, name


def test_extension_is_conservative(c4):
    after, step = one_step_extension(c4, find_extension_sites(c4)[0])
    lat = after.lattice
    keep = [v for v in range(lat.n) if lat.names[v] != step.t]
    assert lat.restrict(keep) == c4.lattice


# -- restrict_gluing -------------------------------------------------------------

def test_restrict_drops_t_from_ideal(c4):
    after, step = one_step_extension(c4, find_extension_sites(c4)[0])
    w = witness_of(after, ["0", "t1", "a", "b"], ["b", "1"])
    got = restrict_gluing(w, step)
    assert got.labels() == (["0", "a", "b"], ["b", "1"], ["b"])


def test_restrict_drops_t_from_filter(c4):
    site = [s for s in find_extension_sites(c4)
            if c4.lattice.names[s[0]] == "a" and s[3] == "left"][0]
    after, step = one_step_extension(c4, site)
    w = witness_of(after, ["0", "a"], ["a", "b", "t1", "1"])
    got = restrict_gluing(w, step)
    assert got.labels() == (["0", "a"], ["a", "b", "1"], ["a"])


def test_restrict_rejects_singleton_t(c4):
    after, step = one_step_extension(c4, find_extension_sites(c4)[0])
    w = witness_of(after, ["0", "t1"], ["t1", "a", "b", "1"])
    with pytest.raises(ChainWasSingletonT):
        restrict_gluing(w, step)


def test_restrict_rejects_improper_witness(c4):
    after, step = one_step_extension(c4, find_extension_sites(c4)[0])
    lat = after.lattice
    everything = frozenset(range(lat.n))
    w = GluingWitness(lat, everything, frozenset([lat.top]), frozenset([lat.top]))
    with pytest.raises(ImproperWitness):
        restrict_gluing(w, step)


def test_restricted_witnesses_stay_valid(corpus):
    for name, diag in corpus:
        slimmed, _ = slim(diag)
        if is_rectangular(slimmed) or is_patch(slimmed):
            continue
        rect, steps = rectangularize(slimmed)
        if is_patch(rect):
            continue
        w = witness_from_cut(decompose_at(rect, *choose_x(rect)))
        for step in reversed(steps):
            w = restrict_gluing(w, step)
            assert validate_witness(w) is None, name


def test_one_pull_back_equals_the_per_step_fold(corpus, random_corpus_small):
    checked = 0
    for name, diag in corpus + random_corpus_small:
        slimmed, _ = slim(diag)
        if is_rectangular(slimmed) or is_patch(slimmed):
            continue
        rect, steps = rectangularize(slimmed)
        if is_patch(rect):
            continue
        cut_witness = witness_from_cut(decompose_at(rect, *choose_x(rect)))
        folded = cut_witness
        for step in reversed(steps):
            folded = restrict_gluing(folded, step)
        pulled = _pull_back(cut_witness, slimmed.lattice)
        assert pulled.ambient is slimmed.lattice and folded.ambient == pulled.ambient, name
        assert (pulled.A, pulled.B, pulled.C) == (folded.A, folded.B, folded.C), name
        assert pulled.labels() == folded.labels(), name
        checked += 1
    assert checked > 100


def test_pull_back_rejects_an_invalid_restriction(c4):
    after, _ = one_step_extension(c4, find_extension_sites(c4)[0])
    w = witness_of(after, ["0", "t1"], ["t1", "a", "b", "1"])
    with pytest.raises(AssertionFailed, match="overlap is empty"):
        _pull_back(w, c4.lattice)


def test_restrict_rejects_a_witness_on_the_unextended_lattice(c4):
    _, step = one_step_extension(c4, find_extension_sites(c4)[0])
    w = witness_of(c4, ["0", "a"], ["a", "b", "1"])
    assert validate_witness(w) is None
    with pytest.raises(ImproperWitness, match="does not live on the extended"):
        restrict_gluing(w, step)


def test_restrict_rejects_t_with_other_covers(c4):
    first, second = [site for site in find_extension_sites(c4) if site[3] == "left"]
    _, step = one_step_extension(c4, first)        # 0 < t1 < b
    other, _ = one_step_extension(c4, second)      # a < t1 < 1
    w = witness_of(other, ["0", "a"], ["a", "b", "t1", "1"])
    assert validate_witness(w) is None
    with pytest.raises(ImproperWitness, match="does not live on the extended"):
        restrict_gluing(w, step)


# -- rectangularize ----------------------------------------------------------------

def test_rectangularize_three_chain(c3, b2):
    rect, steps = rectangularize(c3)
    assert len(steps) == 1
    assert is_isomorphic(rect.lattice, b2.lattice) is not None


def test_rectangularize_grid_is_noop():
    g = generate("grid", [3, 3])
    rect, steps = rectangularize(g)
    assert steps == [] and rect == g


def test_rectangularize_four_chain(c4):
    rect, steps = rectangularize(c4)
    assert len(steps) == 2 and rect.lattice.n == 6
    assert is_rectangular(rect) and is_slim(rect)
    first, second = steps
    assert (first.a, first.c) == ("0", "b")
    assert (second.a, second.c) == ("t1", "1")


def test_rectangularize_replay_reproduces(corpus):
    for name, diag in corpus:
        slimmed, _ = slim(diag)
        if slimmed.lattice.n == 2:
            continue  # the two-element chain has no extension site
        rect, steps = rectangularize(slimmed)
        assert is_rectangular(rect) and is_slim(rect), name
        replay = slimmed
        for step in steps:
            lat = replay.lattice
            site = (lat.id_of(step.a), lat.id_of(step.b), lat.id_of(step.c),
                    step.side)
            replay, _ = one_step_extension(replay, site)
        assert replay == rect, name


def test_the_cascade_pass_is_the_site_process_step_by_step(corpus):
    """On every slim node: `_cascades` on the boundary chains alone gives
    the chains, cover counts, links and step count of the reference's
    first-site loop; `_Hull`, grown from `_site_process`'s record, its
    cover lists; and the hull drawn from that record (`_drawn_hull`) its
    steps, by the ids of their labels, each t taking the next id, and its
    final chains."""
    inputs = corpus + ladder_inputs()
    inputs += [(f"sps[{n}]#7", generate("random-sps", [n], seed=7)) for n in (80, 160)]
    inputs += [(f"sps[{2 + seed % 23}]#{seed}",
                generate("random-sps", [2 + seed % 23], seed=seed)) for seed in range(300)]
    inputs += [(f"grid{m}x{n}", generate("grid", [m, n]))
               for m in range(2, 8) for n in range(2, 8)]
    inputs += [(f"diamond{k}", generate("diamond", [k])) for k in (3, 4, 5)]
    inputs += oracles.fork_corpus() + oracles.s7_glued_corpus()
    nodes = steps = cascades = 0
    for name, diag in inputs:
        for node in distinct_nodes(decompose(diag)[0]):
            slimmed, _ = slim(node.diagram)
            lat, b = slimmed.lattice, slimmed.boundary
            chains, upper, lower, lo, hi, expected = oracles.site_process_by_steps(slimmed)
            state = ([list(b.left_chain), list(b.right_chain)],
                     [len(ws) for ws in lat.upper_covers],
                     [len(ws) for ws in lat.lower_covers],
                     list(range(lat.n)), list(range(lat.n)))
            cascades += sum(1 for _ in _cascades(*state, lat.n ** 2))
            assert state == (list(chains), [len(ws) for ws in upper],
                             [len(ws) for ws in lower], lo, hi), name
            assert len(state[3]) == lat.n + len(expected), name
            run = _site_process(slimmed)
            assert run[:5] == state, name
            hull = _Hull(slimmed, run[0], run[-1])
            rect, drawn = _drawn_hull(slimmed, run[-1])
            index = rect.lattice.index
            assert [(index[s.a], index[s.b], index[s.c], s.side) for s in drawn] == \
                expected, name
            assert [index[s.t] for s in drawn] == list(range(lat.n, len(state[3]))), name
            assert [rect.boundary.left_chain, rect.boundary.right_chain] == \
                list(map(tuple, chains)), name
            assert (hull.upper_covers, hull.lower_covers) == (upper, lower), name
            assert (run[0], run[3], run[4]) == (list(chains), lo, hi), name
            nodes += 1
            steps += len(expected)
    # a cascade makes three steps on average
    assert (nodes, steps, cascades) == (9492, 60869, 18256)


def test_a_rectangular_node_runs_no_cascade(corpus, random_corpus_small, eyed_forks):
    """On every rectangular node that is no patch, eyes and all: the site
    process finds no site, and `_corners` on its run gives the walked
    corners.  So `_link_cut` cuts a rectangular node off its run like any
    other."""
    inputs = (corpus + random_corpus_small + ladder_inputs() + oracles.fork_corpus()
              + eyed_forks)
    nodes = eyed = 0
    for name, diag in inputs:
        for node in distinct_nodes(decompose(diag)[0]):
            d = node.diagram
            if is_patch(d) or not is_rectangular(d):
                continue
            chains, up, down, lo, hi, cascades = _site_process(d)
            b = d.boundary
            assert cascades == [], name
            assert chains == [list(b.left_chain), list(b.right_chain)], name
            assert _corners(chains, up, down) == [b.u_l, b.u_r], name
            nodes += 1
            eyed += bool(slim(d)[1])
    assert eyed > 100 and (nodes, eyed) == (511, 194)


def rectangularize_until_rectangular(diag):
    """The hull and steps of extending at the first site of each frozen
    hull until one is rectangular, every state re-derived and its boundary
    walked afresh."""
    steps = []
    while not is_rectangular(diag):
        sites = find_extension_sites(diag)
        if not sites:
            raise StuckNotRectangular("no site")
        diag, step = one_step_extension(diag, sites[0])
        steps.append(step)
    return diag, steps


def test_hull_is_rectangular_exactly_when_no_site_is_left(corpus, random_corpus_small):
    inputs = corpus + random_corpus_small
    inputs += [(f"grid{m}x{n}", generate("grid", [m, n]))
               for m in range(2, 7) for n in range(2, 7)]
    inputs += [(f"chain{n}", generate("chain", [n])) for n in range(3, 16)]
    states = 0
    for name, diag in inputs:
        slimmed, _ = slim(diag)
        if slimmed.lattice.n <= 2:
            continue
        drawn = slimmed
        while True:
            # a frozen copy, its boundary walked afresh; the sites are
            # scanned on the chains each one-step hull carries
            frozen = Diagram(drawn.lattice, drawn.xcoord)
            b = drawn.boundary
            found = next(_sites(drawn.lattice, (b.left_chain, b.right_chain)), None)
            assert is_rectangular(frozen) == (found is None), name
            assert is_rectangular(frozen) == (find_extension_sites(frozen) == []), name
            states += 1
            if found is None:
                break
            drawn, _ = one_step_extension(drawn, found[1])
        assert rectangularize(slimmed) == rectangularize_until_rectangular(slimmed), name
    assert states > 1000


def test_rectangularize_recounts_corners_once(monkeypatch):
    calls = []
    real = _boundary_data

    def counting(*args):
        calls.append(args)
        return real(*args)

    slimmed, _ = slim(generate("random-sps", [30], seed=7))
    for base, steps_at_least in ((generate("chain", [12]), 10), (slimmed, 2),
                                 (generate("grid", [3, 3]), 0)):
        base.boundary  # the input's own boundary is not the hull's work
        calls.clear()
        monkeypatch.setattr(latpatch.diagram, "_boundary_data", counting)
        monkeypatch.setattr(latpatch.ops, "_boundary_data", counting)
        hull, steps = rectangularize(base)
        monkeypatch.undo()
        assert len(steps) >= steps_at_least
        assert len(calls) == (1 if steps else 0)


def test_rectangularize_two_chain_is_stuck():
    with pytest.raises(StuckNotRectangular):
        rectangularize(generate("chain", [2]))


def test_rectangularize_respects_round_bound(c4, monkeypatch):
    # rectangularize bounds the site process by n² steps, 16 for c4
    bounds = []

    def recording(*state):
        bounds.append(state[-1])
        return _cascades(*state)

    monkeypatch.setattr(latpatch.ops, "_cascades", recording)
    _, steps = rectangularize(c4)
    assert bounds == [16] and len(steps) == 2
    # the 20-chain's process takes 18 steps, one per cascade; under a bound
    # of 16 it stops before the cascade that would pass the bound
    chain = generate("chain", [20])
    lat, b = chain.lattice, chain.boundary
    state = ([list(b.left_chain), list(b.right_chain)],
             [len(ws) for ws in lat.upper_covers], [len(ws) for ws in lat.lower_covers],
             list(range(20)), list(range(20)))
    with pytest.raises(IterationBoundExceeded, match="after 16 extensions"):
        for _ in _cascades(*state, 16):
            pass
    assert len(state[3]) == 20 + 16


# -- decompose_at and choose_x -------------------------------------------------------

def test_cut_grid_left():
    g = generate("grid", [3, 3])
    cut = decompose_at(g, g.lattice.id_of("1,2"), "left")
    assert len(cut.chain) == 3
    g23 = generate("grid", [2, 3]).lattice
    assert is_isomorphic(cut.bottom_part.lattice, g23) is not None
    assert is_isomorphic(cut.top_part.lattice, g23) is not None


def test_cut_grid_mirrored(b2):
    g = generate("grid", [2, 3])
    cut = decompose_at(g, g.lattice.id_of("1,1"), "mirrored")
    assert len(cut.chain) == 2
    assert is_isomorphic(cut.bottom_part.lattice, b2.lattice) is not None
    assert is_isomorphic(cut.top_part.lattice, b2.lattice) is not None


def test_cut_rejects_patch_corners(b2):
    for x in range(b2.lattice.n):
        with pytest.raises(BadX):
            decompose_at(b2, x, "left")


def test_cut_rejects_bad_input(c3, c4, m3):
    with pytest.raises(BadX, match="not rectangular"):
        decompose_at(c3, c3.lattice.id_of("b"), "left")
    with pytest.raises(BadX, match="not slim"):
        decompose_at(m3, m3.lattice.id_of("a"), "left")
    g = generate("grid", [3, 3])
    x, _ = choose_x(g)
    with pytest.raises(BadX, match="unknown mode"):
        decompose_at(g, x, "up")
    # an uncuttable x is named by its id: below the corner, the corner
    # itself, the top, off the chain and no element at all; and on the root
    # check's closed hull, which has no labels
    b = g.boundary
    for x in (g.lattice.bottom, b.u_l, g.lattice.top, b.u_r, 99, -1):
        with pytest.raises(BadX, match=f"^element {x} is not a cuttable boundary element$"):
            decompose_at(g, x, "left")
    run = _site_process(c4)
    hull = _Hull(c4, run[0], run[-1])
    b = hull.close()
    assert not hasattr(hull, "names")
    with pytest.raises(BadX, match=f"^element {b.u_l} is not a cuttable"):
        latpatch.ops._cut(hull, b, b.u_l, "left")


def test_choose_x_values(b2, c3):
    g = generate("grid", [3, 3])
    x, mode = choose_x(g)
    assert (g.lattice.names[x], mode) == ("1,2", "left")
    g = generate("grid", [2, 3])
    x, mode = choose_x(g)
    assert (g.lattice.names[x], mode) == ("1,1", "mirrored")
    with pytest.raises(IsPatch):
        choose_x(b2)
    with pytest.raises(NotRectangular):
        choose_x(c3)


def test_every_left_cut_obeys_the_decomposition_claims(corpus):
    for name, diag in corpus:
        if not (is_slim(diag) and is_rectangular(diag)):
            continue
        lat = diag.lattice
        boundary = upper_left_boundary(diag)
        u_l, u_r = diag.boundary.u_l, diag.boundary.u_r
        for x in boundary:
            if x in (u_l, lat.top):
                continue
            cut = decompose_at(diag, x, "left")
            pivot = lat.meet(x, u_r)
            assert cut.pivot == pivot, name
            assert lat.join(u_l, pivot) == x, name
            nb, nt = cut.bottom_part.lattice.n, cut.top_part.lattice.n
            assert nb + nt - len(cut.chain) == lat.n, name
            chain_labels = [lat.names[v] for v in cut.chain]
            reglued = glue_over_chain(cut.bottom_part, cut.top_part,
                                      {c: c for c in chain_labels})
            assert is_isomorphic(reglued.lattice, lat) is not None, name


def test_cut_builds_its_parts_only_when_read(monkeypatch):
    slimmed, _ = slim(generate("random-sps", [30], seed=7))
    for diag in (generate("grid", [4, 3]), rectangularize(slimmed)[0]):
        x, mode = choose_x(diag)
        lat = diag.lattice
        built = []
        real_derived, real_trusted = Lattice._derived, Lattice._trusted

        def counting_derived(*args):
            built.append("derived")
            return real_derived(*args)

        def counting_trusted(*args, **kwargs):
            built.append("trusted")
            return real_trusted(*args, **kwargs)

        monkeypatch.setattr(Lattice, "_derived", counting_derived)
        monkeypatch.setattr(Lattice, "_trusted", staticmethod(counting_trusted))
        cut = decompose_at(diag, x, mode)
        assert built == []
        bottom = cut.bottom_part
        assert built and cut.bottom_part is bottom
        top = cut.top_part
        monkeypatch.undo()
        assert bottom == subdiagram(diag, iter_bits(lat.down[x]))
        assert top == subdiagram(diag, iter_bits(lat.up[cut.pivot]))
