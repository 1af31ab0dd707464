import dataclasses
import gc
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import latpatch.pipeline
import oracles
from conftest import distinct_nodes, ladder_inputs
from latpatch import (DecompGlue, DecompLeaf, Diagram, Lattice, PipelineTrace,
                      brute_force_gluing_search, choose_x, decompose,
                      decompose_at, generate, is_isomorphic, is_patch,
                      is_rectangular, is_semimodular, is_slim,
                      parse_tree_document, rectangularize, sequence_of,
                      serialize, serialize_tree, slim, subdiagram,
                      synthesize_embedding, validate_diagram, validate_witness,
                      verify_tree, witness_from_cut)
from latpatch.core import iter_bits
from latpatch.errors import (AssertionFailed, LatpatchError, NoDecomposition,
                             NotSemimodular, SizeBoundExceeded,
                             StuckNotRectangular)
from latpatch.diagram import _GrowingDiagram
from latpatch.ops import (GluingWitness, _choose, _cut, _drawn_hull, _Hull,
                          _link_cut, _principal, _pull_back, _site_process)
from latpatch.pipeline import _step, _trace


def labeled(lat):
    return [(lat.names[a], lat.names[b]) for a, b in lat.covers], list(lat.names)


def leaves_of(tree):
    if isinstance(tree, DecompLeaf):
        return [tree]
    return leaves_of(tree.left) + leaves_of(tree.right)


def occurrences_of(tree):
    """Every node of the tree, a shared subtree once per occurrence."""
    if isinstance(tree, DecompLeaf):
        return [tree]
    return [tree] + occurrences_of(tree.left) + occurrences_of(tree.right)


def chain_sizes_of(tree):
    if isinstance(tree, DecompLeaf):
        return []
    return (chain_sizes_of(tree.left) + chain_sizes_of(tree.right)
            + [tree.chain_size])


# -- decompose -------------------------------------------------------------

def test_decompose_three_chain(c3):
    tree, trace = decompose(c3)
    assert isinstance(tree, DecompGlue) and tree.chain_size == 1
    assert isinstance(tree.left, DecompLeaf) and isinstance(tree.right, DecompLeaf)
    assert tree.left.diagram.lattice.n == 2 and tree.right.diagram.lattice.n == 2
    assert trace.fallback_used and trace.cut is None
    assert len(trace.extension_steps) == 1
    entries, parts = sequence_of(tree)
    assert [e.lattice.n for e in entries] == [2, 2, 3]
    assert parts == {3: (1, 2)}
    # the witness built for the 3-element chain is the oracle's
    expected = brute_force_gluing_search(c3)
    assert (tree.witness.A, tree.witness.B, tree.witness.C) == (
        expected.A, expected.B, expected.C)


def test_decompose_never_calls_the_oracle(corpus, random_corpus_small, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle was called")

    fallbacks = []

    def recording(diag):
        # a node's hull is a patch when its link cut finds no cut; a chain,
        # cut in closed form, gets its link cut here
        step = _step(diag)
        if step is not None and (step[1] or _link_cut(diag))[1] is None:
            fallbacks.append(diag.lattice.n)
        return step

    monkeypatch.setattr(latpatch.pipeline, "brute_force_gluing_search", refuse)
    monkeypatch.setattr(latpatch.pipeline, "_step", recording)
    for name, diag in corpus + random_corpus_small:
        tree, _ = decompose(diag)
        assert verify_tree(tree, diag) is None, name
    # only the 3-element chain's hull is a patch
    assert len(fallbacks) > 100 and set(fallbacks) == {3}


def test_a_patch_hull_of_a_larger_slim_lattice_is_refused(c3, c4, monkeypatch):
    # a hull that is a patch after extension steps, as if c4 were the 3-chain:
    # the site process hands back the 3-chain's run, a square after one
    # step, with each id moved to the c4 element of its label (t to c4's
    # next id)
    chains, up, down, *rest = run = _site_process(c3)
    assert len(run[-1]) == 1 and is_patch(_drawn_hull(c3, run[-1])[0])
    lat = c4.lattice
    moved = [lat.id_of(name) for name in c3.lattice.names] + [lat.n]

    def moved_counts(counts):
        out = [0] * (lat.n + 1)
        for v, k in enumerate(counts):
            out[moved[v]] = k
        return out

    as_c4 = ([[moved[v] for v in chain] for chain in chains],
             moved_counts(up), moved_counts(down), *rest)
    monkeypatch.setattr(latpatch.ops, "_site_process", lambda diag: as_c4)
    with pytest.raises(AssertionFailed, match="4-element slim lattice is a patch"):
        decompose(c4)


def materialized_step(diag):
    """The decomposition step with its hull drawn: `rectangularize`,
    `choose_x`, `decompose_at`, `witness_from_cut` and `_pull_back` on the
    slim diagram, or the oracle for a patch hull.  None for a patch, else
    the witness on the slim lattice and the trace."""
    if is_patch(diag):
        return None
    slimmed, eyes = slim(diag)
    rect, steps = rectangularize(slimmed)
    cut = None
    if steps and is_patch(rect):
        if slimmed.lattice.n != 3:
            raise AssertionFailed(
                f"the hull of a {slimmed.lattice.n}-element slim lattice is a patch")
        witness = brute_force_gluing_search(slimmed)
    else:
        cut = decompose_at(rect, *choose_x(rect))
        witness = witness_from_cut(cut)
        if steps:
            witness = _pull_back(witness, slimmed.lattice)
    return witness, PipelineTrace(tuple(eyes), tuple(steps), cut, cut is None)


def test_the_undrawn_step_equals_the_materialized_one(glue_nodes):
    fallbacks = grown = attached = rectangular = eyed_rectangular = 0
    for name, diag in glue_nodes:
        witness, trace = materialized_step(diag)
        step = _step(diag)
        undrawn = _trace(diag, step)
        slimmed, run, cut = undrawn._undrawn
        # the same x, pivot, chain and mode, and the same hull once drawn
        assert undrawn == trace, name
        # the node's witness, read eyes and all, is the slim one lifted
        found = step[0]
        assert found.ambient is diag.lattice, name
        assert (found.A, found.B, found.C) == lift_by_records(
            witness, trace.eyes, diag.lattice), name
        # the node's own run, carried to the slim ids, is the slim diagram's
        slim_run = _link_cut(slimmed)[0]
        assert run == (slim_run[0], slim_run[-1]), name
        if cut is None:
            fallbacks += 1
            continue
        x, pivot, _, _ = cut
        # the links of the run: (↓lo(x), ↑hi(pivot)) on the slim lattice
        lo, hi = slim_run[3], slim_run[4]
        pulled = _principal(slimmed.lattice, lo[x], hi[pivot])
        n = slimmed.lattice.n
        if not run[1]:
            # a rectangular slim diagram: a run with no cascade, whose links
            # are the identity, so the cut is (↓x, ↑pivot) itself
            assert is_rectangular(slimmed) and lo == hi == list(range(n)), name
            assert pulled == _principal(slimmed.lattice, x, pivot), name
            rectangular += 1
            eyed_rectangular += bool(trace.eyes)
        else:
            hull = _Hull(slimmed, *run)
            grown += 1
            # a later step added covers to an earlier t, which the pull-back
            # must see through
            attached += any(len(hull.lower_covers[t]) > 1 or len(hull.upper_covers[t]) > 1
                            for t in range(n, len(hull.height)))
        assert pulled == witness, name
    assert (len(glue_nodes), fallbacks, grown, rectangular) == (1252, 420, 579, 253)
    assert attached > 50 and eyed_rectangular == 13


def test_a_chain_step_equals_the_materialized_one():
    # the closed form (↓c, ↑c) of a chain, and its hull and cut grown when
    # the trace reads them, drawn straight and zigzag
    for n in range(3, 201):
        straight = generate("chain", [n])
        zigzag = Diagram(straight.lattice, [v % 2 for v in range(n)])
        assert validate_diagram(zigzag) is None
        for diag in (straight, zigzag):
            witness, trace = materialized_step(diag)
            step = _step(diag)
            # a chain has no eyes, and runs no site process until its trace
            assert step == (witness, None), n
            assert _trace(diag, step) == trace, n


def test_a_chain_grows_only_the_root_hull(monkeypatch):
    grown = []
    site_process = latpatch.ops._site_process

    def counted(diag):
        grown.append(diag.lattice.n)
        return site_process(diag)

    monkeypatch.setattr(latpatch.ops, "_site_process", counted)
    diag = generate("chain", [200])
    tree, trace = decompose(diag)
    # before any trace field is read: the root's agreement check is eager
    assert grown == [200]
    assert len(trace.extension_steps) == 198 and trace.cut.x == diag.lattice.id_of("2")
    assert verify_tree(tree, diag) is None


def test_the_root_trace_is_drawn_when_first_read(monkeypatch):
    hull_draws, draws = [], []
    hull_draw, draw = latpatch.pipeline._drawn_hull, latpatch.pipeline._draw

    def counted_hull_draw(*run):
        hull_draws.append(run)
        return hull_draw(*run)

    def counted_draw(*undrawn):
        draws.append(undrawn)
        return draw(*undrawn)

    monkeypatch.setattr(latpatch.pipeline, "_drawn_hull", counted_hull_draw)
    monkeypatch.setattr(latpatch.pipeline, "_draw", counted_draw)
    inputs = ladder_inputs() + [("grid4x6", generate("grid", [4, 6])),
                                ("sps[24]#0", generate("random-sps", [24], seed=0))]
    for name, diag in inputs:
        hull_draws.clear()
        draws.clear()
        _, trace = decompose(diag)
        assert hull_draws == draws == [], name
        cut = trace.cut
        # the 4×6 grid is rectangular: its run has no cascade, and its hull,
        # the slim diagram itself, is drawn like any other
        assert len(draws) == 1 == len(hull_draws), name
        assert trace.extension_steps is trace.extension_steps and cut is trace.cut
        assert len(draws) == 1 == len(hull_draws), name
        assert (trace.extension_steps == ()) == (name == "grid4x6"), name
        assert trace == materialized_step(diag)[1], name


def test_traces_are_unhashable():
    # a patch root, a patch hull and a grown hull, whose cut holds the drawn
    # hull: traces compare by their fields, but none of them hashes
    kinds = []
    for kind, params, seed in [("diamond", [4], 0), ("chain", [3], 0),
                               ("random-sps", [24], 0)]:
        _, trace = decompose(generate(kind, params, seed=seed))
        kinds.append((len(trace.extension_steps) > 0, trace.fallback_used,
                      trace.cut is not None))
        with pytest.raises(TypeError):
            hash(trace)
    assert kinds == [(False, False, False), (True, True, False), (True, False, True)]


def test_a_drawn_trace_prints_and_compares_by_its_fields():
    _, trace = decompose(generate("chain", [4]))
    assert repr(trace) == (
        "PipelineTrace(eyes=(), extension_steps=("
        "ExtensionStep(a='0', b='1', c='2', side='left', t='t1'), "
        "ExtensionStep(a='t1', b='2', c='3', side='left', t='t2')), "
        "cut=DecompositionCut(x=2, pivot=4, ambient=Diagram(Lattice(6 elements, "
        "7 covers)), chain=(2, 4), mode='mirrored'), fallback_used=False)")
    # a trace is equal to no other kind of object
    for other in (None, (), trace._fields(), "trace"):
        assert trace.__eq__(other) is NotImplemented
        assert trace != other and not trace == other


def test_decompose_validates_each_witness_once(corpus, random_corpus_small, monkeypatch):
    checked = []  # (id(ambient), A, B) of each validated witness
    alive = []    # every checked ambient, so that no id is reused
    validate = latpatch.ops.validate_witness

    def recording(w):
        checked.append((id(w.ambient), w.A, w.B))
        alive.append(w.ambient)
        return validate(w)

    monkeypatch.setattr(latpatch.ops, "validate_witness", recording)
    monkeypatch.setattr(latpatch.pipeline, "validate_witness", recording)
    eyed = 0
    for name, diag in corpus + random_corpus_small + ladder_inputs():
        checked.clear()
        alive.clear()
        tree, trace = decompose(diag)
        assert len(checked) == len(set(checked)), name
        for node in occurrences_of(tree):
            if isinstance(node, DecompGlue):
                w = node.witness
                assert (id(w.ambient), w.A, w.B) in checked, name
        # below the root, each distinct glue node is validated exactly once,
        # on its own lattice, and nothing else is; the root's witness is
        # validated once on the root, and once more restricted to its slim
        # lattice exactly when the root has eyes
        inner = [node for node in distinct_nodes(tree) if node is not tree]
        lattices = {id(node.diagram.lattice) for node in inner}
        below = Counter(entry for entry in checked if entry[0] in lattices)
        assert below == Counter((id(node.witness.ambient), node.witness.A, node.witness.B)
                                for node in inner if isinstance(node, DecompGlue)), name
        expected = []
        if isinstance(tree, DecompGlue):
            expected.append(id(diag.lattice))
            if trace.eyes:
                expected.append(id(trace._undrawn[0].lattice))
                eyed += 1
        assert sorted(entry[0] for entry in checked if entry[0] not in lattices) == sorted(
            expected), name
    assert eyed > 20


def test_a_chain_root_whose_hull_path_disagrees_is_refused(monkeypatch):
    link_cut = latpatch.pipeline._link_cut

    def disagreeing(diag):
        run, cut, _ = link_cut(diag)
        m = diag.lattice.upper_covers[diag.lattice.bottom][0]
        return run, cut, _principal(diag.lattice, m, m)

    monkeypatch.setattr(latpatch.pipeline, "_link_cut", disagreeing)
    with pytest.raises(AssertionFailed, match="different witnesses"):
        decompose(generate("chain", [6]))


def test_an_invalid_pulled_back_witness_is_refused(monkeypatch):
    # the root has eyes, so its trace restricts the root's witness to its
    # slim lattice, and validates the restriction there
    diag = generate("random-sps", [24], seed=0)
    assert slim(diag)[1]
    monkeypatch.setattr(latpatch.ops, "validate_witness", lambda w: "refused")
    with pytest.raises(AssertionFailed, match="restricted witness is invalid: refused"):
        decompose(diag)


def hull_cut(slimmed):
    """The hull of a slim diagram, grown from its own run of the site
    process (None for a rectangular diagram, its own hull) and closed, its
    boundary data, its cut (x, pivot, chain, mode) by `_choose` and `_cut`
    on its masks, and the cut's witness (↓x, ↑pivot) read off those masks
    on the slim lattice's ids, the hull's first n."""
    lat = slimmed.lattice
    if is_rectangular(slimmed):
        hull, rect, b = None, lat, slimmed.boundary
    else:
        run = _site_process(slimmed)
        hull = rect = _Hull(slimmed, run[0], run[-1])
        b = hull.close()
    x, mode = _choose(rect, b)
    pivot, chain = _cut(rect, b, x, mode)
    down, up = rect.down[x] & lat.full_mask, rect.up[pivot] & lat.full_mask
    found = GluingWitness(lat, *(frozenset(iter_bits(m)) for m in (down, up, down & up)))
    return hull, b, (x, pivot, chain, mode), found


def link_rule_agrees(diag, name):
    """On a node that `decompose` cuts and that is no chain: `_link_cut`
    gives the x, pivot and witness of the cut of the hull grown and closed
    (`hull_cut`), and ↓ of the opposite corner is that corner's chain up
    to it.  None on any other node, else whether the node grew a hull."""
    lat = diag.lattice
    if is_patch(diag) or len(lat.covers) == lat.n - 1:
        return None
    slimmed, _ = slim(diag)
    run, (x, pivot), linked = _link_cut(slimmed)
    hull, b, cut, found = hull_cut(slimmed)
    # every such node gets a run; it makes no cascade exactly when the
    # slim diagram is rectangular, its own hull, whose chains it keeps
    assert bool(run[-1]) == (hull is not None), name
    assert run[0] == [list(b.left_chain), list(b.right_chain)], name
    assert cut[:2] == (x, pivot) and found == linked, name
    rect = slimmed.lattice if hull is None else hull
    chain, opposite = (b.right_chain, b.u_r) if cut[3] == "left" else (b.left_chain, b.u_l)
    prefix = chain[:chain.index(opposite) + 1]
    assert rect.down[opposite] == sum(1 << y for y in prefix), name
    return hull is not None


def test_the_link_rule_gives_the_hull_path_cut(corpus):
    inputs = corpus + ladder_inputs()
    inputs += [(f"sps[{n}]#7", generate("random-sps", [n], seed=7)) for n in (80, 160)]
    inputs += [(f"grid{m}x{n}", generate("grid", [m, n]))
               for m in range(2, 8) for n in range(2, 8)]
    inputs += [(f"diamond{k}", generate("diamond", [k])) for k in (3, 4, 5)]
    grown = rectangular = 0
    for name, diag in inputs:
        for node in distinct_nodes(decompose(diag)[0]):
            found = link_rule_agrees(node.diagram, name)
            grown += found is True
            rectangular += found is False
    assert (grown, rectangular) == (204, 438)


def test_fork_inputs_decompose_and_agree_with_the_hull_path():
    inputs = oracles.fork_corpus() + oracles.s7_glued_corpus()
    assert len(inputs) == 36 + 33
    # the first fork input is B2 with a fork: S_7
    s7 = Lattice([("0", "a"), ("0", "b"), ("a", "a1"), ("a", "m"), ("b", "m"),
                  ("b", "b1"), ("a1", "1"), ("m", "1"), ("b1", "1")])
    assert is_isomorphic(inputs[0][1].lattice, s7) is not None
    assert is_slim(inputs[0][1]) and is_patch(inputs[0][1])
    checked = 0
    for name, diag in inputs:
        assert validate_diagram(diag) is None and is_semimodular(diag.lattice), name
        tree, _ = decompose(diag)
        assert verify_tree(tree, diag) is None, name
        for node in distinct_nodes(tree):
            # the dichotomy: a patch, or a gluing found
            witness = brute_force_gluing_search(node.diagram)
            assert (witness is None) == is_patch(node.diagram), name
            assert isinstance(node, DecompLeaf) == is_patch(node.diagram), name
            checked += link_rule_agrees(node.diagram, name) is not None
    assert checked == 348


def test_fork_inputs_with_eyes_decompose_and_obey_the_dichotomy(eyed_forks):
    # eyes put back into the fork and S_7 inputs land below the root, where
    # each node is cut on its own diagram, eyes and all
    eyes = nodes = eyed_nodes = 0
    for name, diag in eyed_forks:
        assert validate_diagram(diag) is None and is_semimodular(diag.lattice), name
        eyes += len(slim(diag)[1])
        tree, _ = decompose(diag)
        assert verify_tree(tree, diag) is None, name
        for node in distinct_nodes(tree):
            # the dichotomy: a patch, or a gluing found
            witness = brute_force_gluing_search(node.diagram)
            assert (witness is None) == is_patch(node.diagram), name
            assert isinstance(node, DecompLeaf) == is_patch(node.diagram), name
            nodes += 1
            eyed_nodes += node is not tree and bool(slim(node.diagram)[1])
    assert (len(eyed_forks), eyes) == (69, 207)
    assert eyed_nodes > 100 and (nodes, eyed_nodes) == (893, 356)


def hull_label(lat, v):
    """An element of a run's hull by label: its label in `lat`, or
    ("t", k) for the k-th element the run added."""
    return lat.names[v] if v < lat.n else ("t", v - lat.n)


def eye_cut_agrees(diag, name):
    """`_link_cut` on the diagram, eyes and all, gives the cut of its slim
    diagram: the same final chains and the same segment of every cascade by
    hull label, the same x and pivot by label, and the slim witness lifted
    (`lift_by_records`).  Whether it has eyes."""
    slimmed, eyes = slim(diag)
    lat, slat = diag.lattice, slimmed.lattice
    run, cut, witness = _link_cut(diag)
    slim_run, slim_cut, slim_witness = _link_cut(slimmed)
    assert ([[hull_label(lat, v) for v in chain] for chain in run[0]]
            == [[hull_label(slat, v) for v in chain] for chain in slim_run[0]]), name
    assert ([(side, [hull_label(lat, v) for v in seg]) for side, seg in run[-1]]
            == [(side, [hull_label(slat, v) for v in seg])
                for side, seg in slim_run[-1]]), name
    assert (cut is None) == (slim_cut is None), name
    if cut is not None:
        assert ([hull_label(lat, v) for v in cut]
                == [hull_label(slat, v) for v in slim_cut]), name
    assert (witness.A, witness.B, witness.C) == lift_by_records(slim_witness, eyes, lat), name
    return bool(eyes)


def test_the_eyes_and_all_cut_equals_the_slim_cut(corpus, random_corpus_small, eyed_forks):
    inputs = corpus + random_corpus_small + ladder_inputs() + eyed_forks
    inputs += oracles.fork_corpus() + oracles.s7_glued_corpus()
    for n in range(3, 9):
        for elements, covers in oracles.small_lattices(n):
            lat = Lattice(covers, elements=elements)
            diag = is_semimodular(lat) and synthesize_embedding(lat)
            if diag:
                inputs.append((f"{covers}", diag))
    seen = set()
    nodes = eyed = 0
    for name, diag in inputs:
        for node in distinct_nodes(decompose(diag)[0]):
            lat = node.diagram.lattice
            key = serialize(node.diagram)
            if is_patch(node.diagram) or len(lat.covers) == lat.n - 1 or key in seen:
                continue
            seen.add(key)
            nodes += 1
            eyed += eye_cut_agrees(node.diagram, name)
    assert eyed > 100 and (nodes, eyed) == (958, 403)


def test_every_node_walks_on_its_root_points_as_on_its_own(corpus, random_corpus_small,
                                                          eyed_forks):
    """A node below the root that walks its boundary (no chain, more than
    two elements) walks on its members' points in the root; that walk
    equals a fresh one on the node's own drawing, and no node keeps the
    points or anything else beside its lattice, drawing and walk."""
    inputs = (corpus + random_corpus_small + ladder_inputs() + oracles.fork_corpus()
              + eyed_forks)
    walked = 0
    for name, diag in inputs:
        tree = decompose(diag)[0]
        for node in distinct_nodes(tree):
            d, lat = node.diagram, node.diagram.lattice
            assert set(vars(d)) <= {"lattice", "xcoord", "boundary"}, name
            if node is tree:
                continue
            walks = lat.n > 2 and len(lat.covers) != lat.n - 1
            assert ("boundary" in vars(d)) == walks, name
            if walks:
                assert d.boundary == Diagram(lat, d.xcoord).boundary, name
                walked += 1
    assert walked == 1562


def small_lattice_checked(elements, covers):
    """Whether the lattice is semimodular, as `is_semimodular` and the
    oracle agree, and, when it is, the number of tree nodes checked.  A
    semimodular one is drawn exactly when its order has dimension at most 2;
    a drawn one decomposes, verifies, matches the memo-free reference and
    obeys the dichotomy on every node."""
    lat = Lattice(covers, elements=elements)
    semi = is_semimodular(lat)
    assert semi == oracles.brute_semimodular(covers, elements), covers
    if not semi:
        return False, 0
    diag = synthesize_embedding(lat)
    assert (diag is not None) == oracles.order_dimension_at_most_2(covers, elements), covers
    if diag is None:
        return True, 0
    tree, _ = decompose(diag)
    assert verify_tree(tree, diag) is None, covers
    assert serialize_tree(tree) == serialize_tree(recursive_decompose(diag))
    nodes = 0
    for node in distinct_nodes(tree):
        # the dichotomy: a patch, or a gluing found
        witness = brute_force_gluing_search(node.diagram)
        assert (witness is None) == is_patch(node.diagram), covers
        assert isinstance(node, DecompLeaf) == is_patch(node.diagram), covers
        nodes += 1
    return True, nodes


def test_every_lattice_with_at_most_7_elements():
    counts, semimodular, nodes = [], [], 0
    for n in range(2, 8):
        lattices = oracles.small_lattices(n)
        counts.append(len(lattices))
        semimodular.append(0)
        for elements, covers in lattices:
            semi, checked = small_lattice_checked(elements, covers)
            semimodular[-1] += semi
            # no lattice this small is B3, so every semimodular one is drawn
            assert checked or not semi, covers
            nodes += checked
    assert counts == [1, 1, 2, 5, 15, 53]  # OEIS A006966
    assert semimodular == [1, 1, 2, 4, 8, 17]
    assert nodes == 200


def test_every_lattice_with_8_elements():
    b3 = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "ab"), ("a", "ac"), ("b", "ab"),
          ("b", "bc"), ("c", "ac"), ("c", "bc"), ("ab", "1"), ("ac", "1"), ("bc", "1")]
    lattices = oracles.small_lattices(8)
    assert len(lattices) == 222  # OEIS A006966
    semimodular, drawn, nodes = 0, 0, 0
    for elements, covers in lattices:
        semi, checked = small_lattice_checked(elements, covers)
        semimodular += semi
        drawn += checked > 0
        nodes += checked
        if semi and not checked:
            # the one semimodular lattice that is not planar
            assert oracles.brute_isomorphic(covers, elements, b3,
                                            ["0", "a", "b", "c", "ab", "ac", "bc", "1"])
    assert semimodular == 38 and drawn == 37
    assert nodes == 327


def test_only_the_root_hull_is_closed_and_cut(monkeypatch):
    closed, cut = [], []
    init, close, cut_at = _Hull.__init__, _Hull.close, latpatch.pipeline._cut

    def based(hull, diag, *run):
        init(hull, diag, *run)
        hull.base = diag

    def counted_close(hull):
        closed.append(hull)
        return close(hull)

    def counted_cut(lat, *args):
        cut.append(lat)
        return cut_at(lat, *args)

    monkeypatch.setattr(latpatch.ops._Hull, "__init__", based)
    monkeypatch.setattr(latpatch.ops._Hull, "close", counted_close)
    monkeypatch.setattr(latpatch.pipeline, "_cut", counted_cut)
    inputs = ladder_inputs() + [("chain30", generate("chain", [30])),
                                ("grid5x5", generate("grid", [5, 5])),
                                ("sps[80]#7", generate("random-sps", [80], seed=7))]
    for name, diag in inputs:
        closed.clear()
        cut.clear()
        _, trace = decompose(diag)
        slimmed, run, _ = trace._undrawn
        # the one closed hull is the root's, grown from the trace's run (the
        # 5×5 grid's has no cascade): a cascade's segment c_j, …, c_{i+2}
        # holds its steps and two more, and each step adds one element
        assert len(closed) == 1 and closed[0].base is slimmed, name
        assert closed[0].n - slimmed.lattice.n == sum(len(seg) - 2 for _, seg in run[1]), name
        assert (run[1] == []) == (name == "grid5x5") and cut == closed, name


def test_decompose_builds_no_hull_below_the_root(monkeypatch):
    built = []
    init = _Hull.__init__

    def counted(hull, diag, *run):
        built.append((hull, diag))
        init(hull, diag, *run)

    inputs = ladder_inputs() + [("chain30", generate("chain", [30])),
                                ("grid5x5", generate("grid", [5, 5])),
                                ("sps[80]#7", generate("random-sps", [80], seed=7))]
    monkeypatch.setattr(latpatch.ops._Hull, "__init__", counted)
    for name, diag in inputs:
        built.clear()
        _, trace = decompose(diag)
        slimmed, run, _ = trace._undrawn
        # every root grows one hull, from the trace's run; the 5×5 grid is
        # rectangular, so its run has no cascade and its hull adds nothing
        assert [diag for _, diag in built] == [slimmed], name
        grew = len(built[0][0].height) > slimmed.lattice.n
        assert not grew and not run[1] if name == "grid5x5" else grew and run[1], name


def test_decompose_runs_the_site_process_once_per_grown_node(monkeypatch):
    # one run per node that is cut and no chain, the root included: the
    # root's check grows its hull from the run its link cut made, and a
    # chain root, cut in closed form, runs it there alone.  The run grows
    # exactly the nodes whose slim diagrams are not rectangular; on a
    # rectangular one it makes no cascade
    runs = []
    cascades = latpatch.ops._cascades

    def counted(*state):
        runs.append(list(cascades(*state)))
        return iter(runs[-1])

    monkeypatch.setattr(latpatch.ops, "_cascades", counted)
    inputs = ladder_inputs() + [("chain30", generate("chain", [30])),
                                ("sps[80]#7", generate("random-sps", [80], seed=7))]
    for name, diag in inputs:
        runs.clear()
        tree, _ = decompose(diag)
        cut = grown = 0
        for node in distinct_nodes(tree):
            lat = node.diagram.lattice
            chain = len(lat.covers) == lat.n - 1
            if isinstance(node, DecompGlue) and (node is tree or not chain):
                cut += 1
                grown += not is_rectangular(slim(node.diagram)[0])
        assert len(runs) == cut > 0 and sum(map(bool, runs)) == grown > 0, name


def test_decompose_keeps_no_hull_alive(monkeypatch):
    hulls, growers, draws = [], [], []
    init, grow, draw = _Hull.__init__, _GrowingDiagram.__init__, latpatch.pipeline._drawn_hull

    def recorded(hull, *args):
        hulls.append(weakref.ref(hull))
        init(hull, *args)

    def recorded_grower(grown, diag):
        growers.append(weakref.ref(grown))
        grow(grown, diag)

    def counted_draw(*run):
        draws.append(run)
        return draw(*run)

    monkeypatch.setattr(_Hull, "__init__", recorded)
    monkeypatch.setattr(_GrowingDiagram, "__init__", recorded_grower)
    monkeypatch.setattr(latpatch.pipeline, "_drawn_hull", counted_draw)
    inputs = ladder_inputs() + [("chain30", generate("chain", [30])),
                                ("sps[80]#7", generate("random-sps", [80], seed=7))]
    for name, diag in inputs:
        hulls.clear()
        growers.clear()
        draws.clear()
        _, trace = decompose(diag)
        gc.collect()
        # the root's hull was grown, closed and cut, and is gone
        assert len(hulls) == 1 and hulls[0]() is None and draws == growers == [], name
        trace.cut
        gc.collect()
        # reading the trace draws the hull once, on one grower, which is
        # gone too, and grows no undrawn hull
        assert len(hulls) == 1 and len(draws) == 1 == len(growers), name
        assert growers[0]() is None, name
        assert trace == materialized_step(diag)[1], name


def test_a_root_whose_link_witness_disagrees_is_refused(monkeypatch):
    link_cut = latpatch.pipeline._link_cut

    def disagreeing(diag):
        # another valid witness on the node's lattice: the oracle's
        run, cut, _ = link_cut(diag)
        return run, cut, brute_force_gluing_search(diag)

    diag = generate("random-sps", [24], seed=1)
    assert brute_force_gluing_search(diag) != _link_cut(diag)[2]
    monkeypatch.setattr(latpatch.pipeline, "_link_cut", disagreeing)
    with pytest.raises(AssertionFailed, match="different witnesses"):
        decompose(diag)


def test_a_root_cut_that_lands_on_an_eye_is_refused(monkeypatch):
    # the root's run and cut are carried to its slim lattice by label, where
    # an eye has no id
    diag = generate("random-sps", [24], seed=0)
    eye = diag.lattice.id_of(slim(diag)[1][0].label)
    link_cut = latpatch.pipeline._link_cut

    def onto_an_eye(node):
        run, (x, pivot), witness = link_cut(node)
        return run, (x, eye), witness

    monkeypatch.setattr(latpatch.pipeline, "_link_cut", onto_an_eye)
    with pytest.raises(AssertionFailed, match="the root's run or cut holds an eye"):
        decompose(diag)


@pytest.mark.parametrize("corner", ["u_l", "u_r"])
def test_an_inner_hull_without_one_corner_per_side_is_refused(corner, monkeypatch):
    corners = latpatch.ops._corners
    grown = []  # the cover counts of each node that grew a hull

    def lopsided(chains, up, down):
        # the root's chains keep their corners; every later one loses one
        grown.append(up)
        found = corners(chains, up, down)
        if len(grown) > 1:
            found[corner == "u_r"] = None
        return found

    diag = generate("random-sps", [24], seed=7)
    monkeypatch.setattr(latpatch.ops, "_corners", lopsided)
    with pytest.raises(StuckNotRectangular, match="no extension site on a non-rectangular"):
        decompose(diag)
    assert len(grown) == 2


def test_an_invalid_lifted_witness_is_refused(monkeypatch):
    # a root's witness, in closed form for a chain or read eyes and all off
    # its link cut, is validated like any other node's
    def improper(lat, a, b):
        return _principal(lat, lat.top, lat.bottom)

    for module, kind, params in ((latpatch.pipeline, "chain", [6]),
                                 (latpatch.ops, "random-sps", [24])):
        diag = generate(kind, params)
        with monkeypatch.context() as m:
            m.setattr(module, "_principal", improper)
            with pytest.raises(AssertionFailed,
                               match="the cut of a node gave an invalid witness"):
                decompose(diag)


def test_an_invalid_inner_witness_is_refused(monkeypatch):
    # the root is no chain; its inner chains get an improper witness
    chain_witness = latpatch.pipeline._chain_witness

    def improper(lat):
        found = chain_witness(lat)
        return found and _principal(lat, lat.top, lat.bottom)

    monkeypatch.setattr(latpatch.pipeline, "_chain_witness", improper)
    with pytest.raises(AssertionFailed, match="the cut of a node gave an invalid witness"):
        decompose(generate("random-sps", [24], seed=7))


def test_each_part_is_built_once_per_distinct_node(monkeypatch):
    for n in (16, 24, 32):
        diag = generate("random-sps", [n], seed=7)
        builds = []

        def counted(lat, xcoord):
            builds.append(Diagram(lat, xcoord))
            return builds[-1]

        with monkeypatch.context() as m:
            m.setattr(latpatch.pipeline, "Diagram", counted)
            tree, _ = decompose(diag)
        distinct = {id(node): node for node in occurrences_of(tree)}
        labels = [frozenset(part.lattice.names) for part in builds]
        assert len(labels) == len(set(labels)) == len(distinct) - 1, n
        # each part is cut from the root: the root's interval on its labels
        for part in builds:
            ids = [diag.lattice.id_of(label) for label in part.lattice.names]
            assert part == subdiagram(diag, ids), n
        assert verify_tree(tree, diag) is None


def small_drawn_lattices(count, seed):
    """`count` drawn lattices with 3 to 10 elements from random cover sets;
    most are not semimodular, so the hull or its cut fails on many."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 10)
        covers = set()
        for v in range(1, n - 1):
            covers |= {(rng.randrange(v), v), (v, rng.randrange(v + 1, n))}
        for _ in range(rng.randint(0, n)):
            covers.add(tuple(sorted(rng.sample(range(n), 2))))
        try:
            lat = Lattice([(str(a), str(b)) for a, b in covers],
                          elements=[str(v) for v in range(n)])
        except LatpatchError:
            continue
        diag = synthesize_embedding(lat, max_size=10)
        if diag is not None:
            out.append(diag)
    return out


def outcome(step, diag):
    """A root step's witness by its parts on the input, lifted through the
    eyes for a witness on the slim lattice (`lift_by_records`), and its
    trace, made at once as `decompose` makes it; or the type and message of
    the error either raised."""
    try:
        found = step(diag)
        if found is None:
            return None
        witness, trace = found
        if not isinstance(trace, PipelineTrace):
            trace = _trace(diag, found)
        if witness.ambient is not diag.lattice:
            return lift_by_records(witness, trace.eyes, diag.lattice), trace
        return (witness.A, witness.B, witness.C), trace
    except LatpatchError as exc:
        return type(exc), str(exc)


def test_the_undrawn_step_fails_as_the_materialized_one():
    errors = {}
    for diag in small_drawn_lattices(600, seed=3):
        expected = outcome(materialized_step, diag)
        found = outcome(_step, diag)
        assert found == expected, (diag.lattice.covers, diag.xcoord)
        if expected is not None and isinstance(expected[0], type):
            message = expected[1].split(" on a ")[0]
            errors[message] = errors.get(message, 0) + 1
    assert set(errors) == {"no extension site", "the cut pivot fell to the bottom element",
                           "a part of the cut is not rectangular"}


def test_s7_the_smallest_nontrivial_slim_patch_is_a_leaf():
    lat = Lattice([("0", "a"), ("0", "b"), ("a", "a1"), ("a", "m"), ("b", "m"),
                   ("b", "b1"), ("a1", "1"), ("m", "1"), ("b1", "1")],
                  elements=["0", "a", "b", "a1", "m", "b1", "1"])
    s7 = Diagram(lat, [0, -1, 1, -2, 0, 2, 0])
    assert validate_diagram(s7) is None
    assert is_semimodular(lat) and is_slim(s7) and is_patch(s7)
    # a slim lattice whose top has three lower covers
    assert len(lat.lower_covers[lat.top]) == 3
    tree, trace = decompose(s7)
    assert isinstance(tree, DecompLeaf) and tree.diagram == s7
    assert trace == PipelineTrace((), (), None, False)
    assert verify_tree(tree, s7) is None


# SHA-256 of each root trace's eyes, steps, cut (x, pivot, mode, chain and
# the serialized hull) and fallback flag, recorded before the hulls of inner
# nodes stopped being drawn
ROOT_TRACES = {
    ("random-sps", (32,), 7): "04dd962cb9696a7f671e96c7d0e6b6b000a2850c646630f41118cb0ce61fdaa5",
    ("random-sps", (80,), 7): "0821ffa095924e9b41fd17bb0428c3e163ebcb503c505509db4b527e3dbb1a6b",
    ("grid", (4, 6), 0): "e6eed19fa2e7ddd93231f5f014015e0c3c5496195580adbc433fffaa76454a77",
    ("chain", (12,), 0): "659681e3466ebd065298d995d5e5de6f2155ec9b9e9e5fff9fd6e4eac91af35f",
}


def trace_text(trace):
    cut = trace.cut
    return json.dumps({
        "eyes": [[e.lower, e.upper, e.slot, e.label] for e in trace.eyes],
        "steps": [[s.a, s.b, s.c, s.side, s.t] for s in trace.extension_steps],
        "fallback": trace.fallback_used,
        "cut": None if cut is None else {
            "x": cut.x, "pivot": cut.pivot, "mode": cut.mode,
            "chain": list(cut.chain), "ambient": serialize(cut.ambient)},
    }, sort_keys=True)


@pytest.mark.parametrize("kind, params, seed", ROOT_TRACES)
def test_the_root_trace_is_pinned(kind, params, seed):
    _, trace = decompose(generate(kind, list(params), seed=seed))
    digest = hashlib.sha256(trace_text(trace).encode()).hexdigest()
    assert digest == ROOT_TRACES[kind, params, seed]


def test_decompose_diamond_is_leaf(m3):
    tree, trace = decompose(m3)
    assert isinstance(tree, DecompLeaf)
    assert trace.eyes == () and trace.cut is None


def test_decompose_grid(b2):
    g = generate("grid", [3, 3])
    tree, trace = decompose(g)
    leaves = leaves_of(tree)
    assert len(leaves) == 4
    for leaf in leaves:
        assert is_isomorphic(leaf.diagram.lattice, b2.lattice) is not None
    assert sorted(chain_sizes_of(tree)) == [2, 2, 3]
    assert not trace.fallback_used and trace.cut is not None
    entries, parts = sequence_of(tree)
    assert [e.lattice.n for e in entries] == [4, 4, 6, 4, 4, 6, 9]
    assert entries[-1].lattice == g.lattice


def test_decompose_rejects_non_semimodular(n5):
    with pytest.raises(NotSemimodular):
        decompose(n5)


def test_decompose_rejects_bad_input(b2):
    with pytest.raises(NoDecomposition, match="one-element"):
        decompose(Diagram(Lattice([], elements=["0"]), [0]))
    with pytest.raises(NoDecomposition, match="drawing is invalid"):
        decompose(Diagram(b2.lattice, [0, 0, 0, 0]))


def lift_by_records(witness, eyes, lat):
    """The slim witness's parts by label, each eye added to A when its upper
    cover is in A and to B when its lower cover is in B."""
    a = set(witness.ambient.labels(witness.A))
    b = set(witness.ambient.labels(witness.B))
    for rec in eyes:
        if rec.upper in a:
            a.add(rec.label)
        if rec.lower in b:
            b.add(rec.label)
    return (frozenset(map(lat.id_of, a)), frozenset(map(lat.id_of, b)),
            frozenset(map(lat.id_of, a & b)))


def test_eye_lift_equals_the_lift_by_eye_records(corpus, random_corpus_small, m3):
    # a root with eyes is cut eyes and all: its witness is the slim
    # diagram's link witness lifted by the eye records, and restricts to it
    checked = 0
    for name, diag in corpus + random_corpus_small + [("m3", m3)]:
        slimmed, eyes = slim(diag)
        step = _step(diag)
        if step is None or not eyes:
            continue
        witness, slim_witness = step[0], _link_cut(slimmed)[2]
        assert witness.ambient is diag.lattice, name
        assert (witness.A, witness.B, witness.C) == lift_by_records(
            slim_witness, eyes, diag.lattice), name
        assert _pull_back(witness, slimmed.lattice) == slim_witness, name
        checked += 1
    assert checked > 20


def test_trace_replays_exactly(corpus, replay):
    for name, diag in corpus:
        tree, trace = decompose(diag)
        if isinstance(tree, DecompLeaf):
            continue
        slimmed, records = slim(diag)
        assert tuple(records) == trace.eyes, name
        pairs = replay(slimmed, trace.extension_steps)
        hull = pairs[-1][1] if pairs else slimmed
        if trace.fallback_used:
            assert trace.cut is None and is_patch(hull), name
        else:
            assert hull == trace.cut.ambient, name


def recursive_decompose(diag):
    """The memo-free recursive decomposition, as a reference on shallow trees:
    every occurrence of an interval is decomposed on its own."""
    step = latpatch.pipeline._step(diag)
    if step is None:
        return DecompLeaf(diag)
    witness = step[0]
    return DecompGlue(recursive_decompose(subdiagram(diag, witness.A)),
                      recursive_decompose(subdiagram(diag, witness.B)),
                      len(witness.C), witness, diag)


def test_shared_subtrees_match_the_memo_free_reference(corpus, random_corpus_small):
    for name, diag in list(corpus) + list(random_corpus_small):
        tree, trace = decompose(diag)
        expected = recursive_decompose(diag)
        assert serialize_tree(tree) == serialize_tree(expected), name
        entries, parts = sequence_of(tree)
        expected_entries, expected_parts = sequence_of(expected)
        assert parts == expected_parts, name
        assert entries == expected_entries, name
        assert trace == _trace(diag, latpatch.pipeline._step(diag)), name


def test_each_distinct_interval_is_decomposed_once(monkeypatch):
    diag = generate("random-sps", [24], seed=7)
    calls = []

    def counted(step):
        def step_counted(d):
            calls.append(d)
            return step(d)
        return step_counted

    with monkeypatch.context() as m:
        m.setattr(latpatch.pipeline, "_step", counted(_step))
        tree, _ = decompose(diag)
    nodes = occurrences_of(tree)
    assert (len(calls), len(nodes)) == (67, 245)
    assert calls[0] is diag
    by_labels = {}
    for node in nodes:
        first = by_labels.setdefault(frozenset(node.diagram.lattice.names), node)
        assert first is node
    assert len(by_labels) == 67
    # a document spells out every occurrence, and parsing it shares nothing
    text = serialize_tree(tree)
    parsed = parse_tree_document(text)
    assert len({id(node) for node in occurrences_of(parsed)}) == 245
    assert verify_tree(parsed, diag) is None
    assert serialize_tree(parsed) == text


def test_witnesses_in_tree_are_proper(corpus, random_corpus_small):
    for name, diag in list(corpus) + list(random_corpus_small)[:40]:
        tree, _ = decompose(diag)

        def walk(node):
            if isinstance(node, DecompLeaf):
                assert is_patch(node.diagram), name
                return
            assert validate_witness(node.witness) is None, name
            walk(node.left)
            walk(node.right)

        walk(tree)


# -- verify_tree -------------------------------------------------------------

def test_verify_round_trip(corpus, random_corpus_small):
    for name, diag in list(corpus) + list(random_corpus_small)[:40]:
        tree, _ = decompose(diag)
        assert verify_tree(tree, diag) is None, name
        parsed = parse_tree_document(serialize_tree(tree))
        assert verify_tree(parsed, diag) is None, name


def test_verify_rejects_non_patch_leaf(c3):
    bad = DecompLeaf(c3)
    violation = verify_tree(bad, c3)
    assert violation is not None and violation.clause == "leaf_patch"


def test_verify_rejects_wrong_root():
    g33, g23 = generate("grid", [3, 3]), generate("grid", [2, 3])
    tree, _ = decompose(g33)
    violation = verify_tree(tree, g23)
    assert violation is not None and violation.clause == "root_isomorphism"


def relabeled(diag, rename):
    lat = diag.lattice
    covers = [(rename[lat.names[a]], rename[lat.names[b]]) for a, b in lat.covers]
    return Diagram(Lattice(covers, elements=[rename[x] for x in lat.names]),
                   diag.xcoord)


def test_verify_root_check_follows_the_labels(monkeypatch):
    g = generate("grid", [3, 3])
    tree, _ = decompose(g)
    names = list(g.lattice.names)

    def no_search(*args):
        raise AssertionError("the label identity needs no isomorphism search")

    with monkeypatch.context() as m:
        m.setattr(latpatch.pipeline, "is_isomorphic", no_search)
        assert verify_tree(tree, g) is None
    # relabeled but isomorphic inputs verify, fresh labels or the same ones
    # moved around (equal label sets, different labeled covers)
    assert verify_tree(tree, relabeled(g, {x: "v" + x for x in names})) is None
    rotated = relabeled(g, dict(zip(names, names[1:] + names[:1])))
    assert set(rotated.lattice.names) == set(names)
    assert set(labeled(rotated.lattice)[0]) != set(labeled(g.lattice)[0])
    assert verify_tree(tree, rotated) is None
    # the same label set on a non-isomorphic lattice is rejected
    chain = Diagram(Lattice(list(zip(names, names[1:])), elements=names),
                    [0] * len(names))
    violation = verify_tree(tree, chain)
    assert violation is not None
    assert (violation.path, violation.clause) == ("root", "root_isomorphism")


def test_verify_rejects_tampered_chain_size():
    g = generate("grid", [3, 3])
    tree, _ = decompose(g)
    tampered = DecompGlue(tree.left, tree.right, tree.chain_size + 1,
                          tree.witness, tree.diagram)
    violation = verify_tree(tampered, g)
    assert violation is not None and violation.clause == "chain_size"


def test_verify_reports_the_first_violation_in_pre_order():
    # the 3x3 grid's root glues two gluings; a node is checked before its
    # children, and a left subtree before the right one
    g = generate("grid", [3, 3])
    tree, _ = decompose(g)

    def bump(node):
        return DecompGlue(node.left, node.right, node.chain_size + 1,
                          node.witness, node.diagram)

    both = DecompGlue(bump(tree.left), bump(tree.right), tree.chain_size,
                      tree.witness, tree.diagram)
    violation = verify_tree(both, g)
    assert (violation.path, violation.clause) == ("root.left", "chain_size")
    violation = verify_tree(bump(both), g)
    assert (violation.path, violation.clause) == ("root", "chain_size")
    right_only = DecompGlue(tree.left, bump(tree.right), tree.chain_size,
                            tree.witness, tree.diagram)
    violation = verify_tree(right_only, g)
    assert (violation.path, violation.clause) == ("root.right", "chain_size")


def preorder(tree):
    """(node, path) for every occurrence, in the order `verify_tree` checks."""
    stack = [(tree, "root")]
    while stack:
        node, path = stack.pop()
        yield node, path
        if isinstance(node, DecompGlue):
            stack += [(node.right, f"{path}.right"), (node.left, f"{path}.left")]


def test_verify_checks_each_shared_node_once(monkeypatch):
    diag = generate("random-sps", [24], seed=7)
    tree, _ = decompose(diag)
    checked = []
    check = latpatch.pipeline._verify_node

    def counted(node, path):
        checked.append(path)
        return check(node, path)

    monkeypatch.setattr(latpatch.pipeline, "_verify_node", counted)
    assert verify_tree(tree, diag) is None
    assert len(checked) == 67  # distinct nodes, of 245 occurrences
    checked.clear()
    assert verify_tree(parse_tree_document(serialize_tree(tree)), diag) is None
    assert len(checked) == 245  # a parsed certificate shares nothing

    # break the glue node that occurs more than once and is reached last,
    # in place of every occurrence: once as one shared object, once as a
    # copy per occurrence; the walk skips other repeats before reaching it
    paths = {}
    for node, path in preorder(tree):
        paths.setdefault(id(node), (node, []))[1].append(path)
    target, target_paths = [(node, ps) for node, ps in paths.values()
                            if len(ps) > 1 and isinstance(node, DecompGlue)][-1]

    def broken(node, memo):
        if memo is not None and id(node) in memo:
            return memo[id(node)]
        if isinstance(node, DecompLeaf):
            return node if memo is not None else DecompLeaf(node.diagram)
        out = DecompGlue(broken(node.left, memo), broken(node.right, memo),
                         node.chain_size + (node is target), node.witness,
                         node.diagram)
        if memo is not None:
            memo[id(node)] = out
        return out

    shared, unshared = broken(tree, {}), broken(tree, None)
    copies = [(node, path) for node, path in preorder(shared)
              if node.diagram is target.diagram]
    assert [path for _, path in copies] == target_paths
    assert len({id(node) for node, _ in copies}) == 1
    checked.clear()
    violation = verify_tree(shared, diag)
    shared_checks = len(checked)
    checked.clear()
    assert verify_tree(unshared, diag) == violation
    assert (violation.path, violation.clause) == (target_paths[0], "chain_size")
    assert shared_checks < len(checked)


def test_verify_rejects_a_chain_that_is_not_the_overlap():
    g = generate("grid", [3, 3])
    doc = json.loads(serialize_tree(decompose(g)[0]))
    doc["chain"] = doc["chain"][:-1]
    violation = verify_tree(parse_tree_document(json.dumps(doc)), g)
    assert (violation.path, violation.clause, violation.detail) == (
        "root", "witness_valid", "C is not A ∩ B")


def test_verify_rejects_a_witness_on_another_lattice():
    g = generate("grid", [3, 3])
    tree, _ = decompose(g)
    other, _ = decompose(generate("grid", [2, 3]))
    moved = DecompGlue(tree.left, tree.right, tree.chain_size, other.witness,
                       tree.diagram)
    violation = verify_tree(moved, g)
    assert (violation.path, violation.clause) == ("root", "witness_ambient")


def test_verify_rejects_a_right_child_that_is_not_the_filter():
    g = generate("grid", [3, 3])
    tree, _ = decompose(g)
    doubled = DecompGlue(tree.left, tree.left, tree.chain_size, tree.witness,
                         tree.diagram)
    violation = verify_tree(doubled, g)
    assert (violation.path, violation.clause, violation.detail) == (
        "root", "parts_match", "filter part does not match the right child")


def test_verify_rejects_swapped_children():
    g = generate("grid", [3, 3])
    tree, _ = decompose(g)
    swapped = DecompGlue(tree.right, tree.left, tree.chain_size,
                         tree.witness, tree.diagram)
    assert verify_tree(swapped, g) is not None


def _swap_labels(doc, a, b):
    """The tree document with labels a and b exchanged everywhere in it."""
    swap = {a: b, b: a}
    lattice = doc["lattice"]
    out = dict(doc, lattice=dict(
        lattice,
        elements=[swap.get(e, e) for e in lattice["elements"]],
        embedding={swap.get(k, k): x for k, x in lattice["embedding"].items()}))
    if doc["kind"] == "glue":
        out["chain"] = [swap.get(e, e) for e in doc["chain"]]
        out["children"] = [_swap_labels(child, a, b) for child in doc["children"]]
    return out


def test_verify_rejects_relabeled_subtree():
    # the left subtree of chain 4 is the chain 0 < 1 < 2; swapping 0 and 1
    # in it keeps every label set and every shape but orders 1 < 0 < 2
    c4 = generate("chain", [4])
    tree, _ = decompose(c4)
    doc = json.loads(serialize_tree(tree))
    left = doc["children"][0]
    assert left["lattice"]["elements"] == ["0", "1", "2"]
    doc["children"][0] = _swap_labels(left, "0", "1")
    tampered = parse_tree_document(json.dumps(doc))
    assert verify_tree(tampered.left, tampered.left.diagram) is None
    violation = verify_tree(tampered, c4)
    assert violation is not None
    assert (violation.path, violation.clause) == ("root", "reglue")


def _chain_leaf(node, rename=None):
    """A leaf holding a chain on the labels of `node`, drawn upright; with
    `rename`, one label (old, new) is replaced on the way."""
    names = [rename[1] if rename and name == rename[0] else name
             for name in node.diagram.lattice.names]
    chain = Lattice(list(zip(names, names[1:])), elements=names)
    return DecompLeaf(Diagram(chain, [0] * len(names)))


def _replaced(node, steps, child):
    """`node` with its descendant down the attribute names `steps` replaced
    by `child(descendant)`."""
    if not steps:
        return child(node)
    first = steps[0]
    return dataclasses.replace(
        node, **{first: _replaced(getattr(node, first), steps[1:], child)})


@pytest.mark.parametrize("kind, params, seed", [("grid", [3, 3], 0),
                                                ("random-sps", [24], 7)])
def test_verify_rejects_a_child_with_the_labels_but_not_the_covers(kind, params, seed):
    # a chain on a child's labels passes `parts_match` and `chain_size`, so
    # only `reglue` can refuse it, in memory and parsed from a document
    diag = generate(kind, params, seed=seed)
    tree, _ = decompose(diag)
    if kind == "random-sps":
        assert len(distinct_nodes(tree)) < len(occurrences_of(tree))
    for path, steps in (("root", ["left"]), ("root.left", ["left", "left"])):
        tampered = _replaced(tree, steps, _chain_leaf)
        parsed = parse_tree_document(serialize_tree(tampered))
        for candidate in (tampered, parsed):
            violation = verify_tree(candidate, diag)
            assert (violation.path, violation.clause, violation.detail) == (
                path, "reglue", "the children's covers do not rebuild the node")


def test_verify_refuses_a_child_label_outside_its_node_as_parts_match():
    # `reglue` maps child labels to node ids; `parts_match` must refuse a
    # foreign label first
    g = generate("grid", [3, 3])
    tree, _ = decompose(g)

    def foreign(node):
        return _chain_leaf(node, rename=(node.diagram.lattice.names[-1], "zz"))

    for path, steps in (("root", ["left"]), ("root", ["right"]),
                        ("root.left", ["left", "left"]), ("root.left", ["left", "right"])):
        side = steps[-1]
        part = "ideal part" if side == "left" else "filter part"
        violation = verify_tree(_replaced(tree, steps, foreign), g)
        assert (violation.path, violation.clause, violation.detail) == (
            path, "parts_match", f"{part} does not match the {side} child")


# -- the oracle -----------------------------------------------------------------

def test_oracle_three_chain(c3):
    witness = brute_force_gluing_search(c3)
    assert witness.labels() == (["0", "b"], ["b", "1"], ["b"])


def test_oracle_square_and_diamond(b2, m3):
    assert brute_force_gluing_search(b2) is None
    assert brute_force_gluing_search(m3) is None


def test_oracle_respects_bound():
    big = generate("grid", [4, 4])
    witness = brute_force_gluing_search(big)
    assert witness is not None and validate_witness(witness) is None
    with pytest.raises(SizeBoundExceeded):
        brute_force_gluing_search(big, bound=14)


def test_oracle_witnesses_are_valid(corpus):
    for name, diag in corpus:
        witness = brute_force_gluing_search(diag)
        if witness is not None:
            assert validate_witness(witness) is None, name


def test_ideal_enumeration_is_principal(corpus):
    # every ideal of a finite lattice is some ↓x and every filter some ↑y,
    # which is what lets the oracle scan element pairs only
    for name, diag in corpus:
        lat = diag.lattice
        covers, elements = labeled(lat)
        leq = oracles.closure_leq(covers, elements)
        ideals, filters = oracles.ideals_and_filters(leq, elements)
        assert sorted(ideals) == sorted(lat.labels(iter_bits(m)) for m in lat.down), name
        assert sorted(filters) == sorted(lat.labels(iter_bits(m)) for m in lat.up), name


def test_oracle_returns_the_first_reference_witness(corpus, random_corpus_small):
    # together these are the acceptance suite's oracle corpus
    members = [(name, d) for name, d in corpus if d.lattice.n <= 12]
    for name, diag in members + list(random_corpus_small):
        expected = oracles.gluing_witnesses(*labeled(diag.lattice))
        witness = brute_force_gluing_search(diag)
        if not expected:
            assert witness is None, name
        else:
            assert witness is not None, name
            assert witness.labels() == expected[0], name


@pytest.mark.parametrize("kind, params, seed", [("grid", [9, 9], 0),
                                                ("random-sps", [80], 7)])
def test_oracle_at_scale(kind, params, seed):
    diag = generate(kind, params, seed=seed)
    witness = brute_force_gluing_search(diag)
    assert not is_patch(diag)
    assert witness is not None and validate_witness(witness) is None


SCALING_RUN = """
import sys
from latpatch import decompose, generate, verify_tree
diag = generate("random-sps", [int(sys.argv[1])], seed=7)
tree, _ = decompose(diag)
print(verify_tree(tree, diag))
"""


@pytest.mark.slow
@pytest.mark.parametrize("n", [120, 160])
def test_decompose_and_verify_at_scale(n):
    # a child process, so that its peak RSS is its own: RUSAGE_CHILDREN
    # reports the largest child this process has waited for
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCALING_RUN, str(n)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert peak_mb < 300


LOW_RECURSION_LIMIT_RUN = """
import sys
from latpatch import decompose, generate, verify_tree
diag = generate("chain", [200])
# a recursive walk needs a frame per tree level, about 100 here
sys.setrecursionlimit(80)
tree, _ = decompose(diag)
print(verify_tree(tree, diag))
"""


def test_chain_200_under_a_low_recursion_limit():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LOW_RECURSION_LIMIT_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert "RecursionError" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"


def test_dichotomy_on_small_corpus(corpus):
    for name, diag in corpus:
        if diag.lattice.n > 12:
            continue
        found = brute_force_gluing_search(diag) is not None
        assert found != is_patch(diag), name


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=20, deadline=None)
def test_dichotomy_on_arbitrary_seeds(seed):
    diag = generate("random-sps", [2 + seed % 11], seed=seed)
    witness = brute_force_gluing_search(diag)
    if witness is None:
        assert is_patch(diag)
    else:
        assert not is_patch(diag)
        assert validate_witness(witness) is None


def test_sequence_indices_precede(corpus, random_corpus_small):
    for name, diag in list(corpus) + list(random_corpus_small)[:40]:
        tree, _ = decompose(diag)
        entries, parts = sequence_of(tree)
        assert entries[-1].lattice == diag.lattice, name
        for i, (j, k) in parts.items():
            assert j < i and k < i, name
        for idx, entry in enumerate(entries, start=1):
            if idx not in parts:
                assert is_patch(entry), name


def recursive_sequence_of(tree):
    """The recursive post-order walk, as a reference on shallow trees."""
    entries, parts = [], {}

    def walk(node):
        if isinstance(node, DecompLeaf):
            entries.append(node.diagram)
            return len(entries)
        j, k = walk(node.left), walk(node.right)
        entries.append(node.diagram)
        parts[len(entries)] = (j, k)
        return len(entries)

    walk(tree)
    return entries, parts


def test_sequence_matches_the_recursive_walk(corpus, random_corpus_small):
    for name, diag in list(corpus) + list(random_corpus_small)[:40]:
        tree, _ = decompose(diag)
        entries, parts = sequence_of(tree)
        expected = recursive_sequence_of(tree)
        assert [id(e) for e in entries] == [id(e) for e in expected[0]], name
        assert parts == expected[1], name


def test_sequence_of_a_3000_level_tree():
    # built directly, node by node; the "diagrams" are labels, which is all
    # the linearization reads
    depth = 3000
    left_spine = DecompLeaf("leaf0")
    right_spine = DecompLeaf("leaf0")
    for i in range(1, depth + 1):
        left_spine = DecompGlue(left_spine, DecompLeaf(f"leaf{i}"), 1, None, f"glue{i}")
        right_spine = DecompGlue(DecompLeaf(f"leaf{i}"), right_spine, 1, None, f"glue{i}")

    entries, parts = sequence_of(left_spine)
    expected = ["leaf0"]
    for i in range(1, depth + 1):
        expected += [f"leaf{i}", f"glue{i}"]
    assert entries == expected
    # glue i joins glue i - 1 (or leaf0, entry 1) with leaf i
    assert parts == {2 * i + 1: (2 * i - 1, 2 * i) for i in range(1, depth + 1)}

    entries, parts = sequence_of(right_spine)
    assert entries == ([f"leaf{i}" for i in range(depth, -1, -1)]
                       + [f"glue{i}" for i in range(1, depth + 1)])
    # glue i joins leaf i with glue i - 1 (or leaf0, entry depth + 1)
    assert parts == {depth + 1 + i: (depth - i + 1, depth + i) for i in range(1, depth + 1)}
