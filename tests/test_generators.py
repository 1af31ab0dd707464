"""The random generator grows one diagram in place.  Each of its moves must
be the move of the public `one_step_extension`, `restore_eyes` or
`glue_over_chain` on the frozen diagram before it, each candidate drawing
of a gluing must get `validate_diagram`'s answer, only a gluing may scale
the grown drawing, and every gluing must equal a full build."""

from collections import Counter

import pytest

import oracles
from conftest import assert_same_lattice
from latpatch import (Diagram, ExtensionStep, Lattice, decompose_at, generate,
                      glue_over_chain, is_patch, one_step_extension, rectangularize,
                      restore_eyes, slim, validate_diagram)
from latpatch import diagram, generators
from latpatch.diagram import _GrowingDiagram
from latpatch.errors import EmbeddingFailed
from latpatch.ops import _sites

# (n, generator seed) of n = 2..60 at three seeds, and of the random inputs
# of the benchmark's `corpus` and `certify` workloads
SMALL_SPECS = [(n, seed) for n in range(2, 61) for seed in (0, 1, 7)]
CORPUS_SPECS = [(2 + (i * 8) % 21, 1000 + i) for i in range(100)]
CERTIFY_SPECS = [(12 + i % 11, 2000 + i) for i in range(84)]
SPECS = SMALL_SPECS + CORPUS_SPECS + CERTIFY_SPECS


def full_build(lat):
    names = lat.names
    return Lattice([(names[a], names[b]) for a, b in lat.covers], elements=names)


def state(grown):
    """The grower's labels, cover lists, heights, x coordinates and chains."""
    return (tuple(grown.names), tuple(map(tuple, grown.upper_covers)),
            tuple(grown.height), tuple(grown.xcoord), tuple(map(tuple, grown.chains)))


def record_moves(n, seed):
    """`random_sps_diagram(n, seed)` and its moves in order, each as (kind,
    argument, the grower's state after it)."""
    moves = []
    real_glue = _GrowingDiagram.glue
    real_extend, real_eye = _GrowingDiagram.extend, _GrowingDiagram.add_eye

    def extend(grown, side, i):
        site = (*grown.chains[side == "right"][i:i + 3], side)
        fields = real_extend(grown, side, i)
        moves.append(("extend", (site, ExtensionStep(*fields)), state(grown)))
        return fields

    def glue(grown, piece, pairs, max_synth=16):
        iso = {grown.names[d]: piece.lattice.names[i] for d, i in pairs}
        try:
            real_glue(grown, piece, pairs, max_synth)
        except EmbeddingFailed:
            moves.append(("failed glue", (piece, iso), state(grown)))
            raise
        moves.append(("glue", (piece, iso), state(grown)))

    def add_eye(grown, rec, mids):
        real_eye(grown, rec, mids)
        moves.append(("eye", rec, state(grown)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_GrowingDiagram, "extend", extend)
        patch.setattr(_GrowingDiagram, "glue", glue)
        patch.setattr(_GrowingDiagram, "add_eye", add_eye)
        out = generators.random_sps_diagram(n, seed)
    return out, moves


def test_every_generator_move_is_the_public_move_on_the_frozen_diagram():
    made = Counter()
    for n, seed in SPECS:
        name = f"sps[{n}]#{seed}"
        out, moves = record_moves(n, seed)
        cur = generate("chain", [2])
        for kind, arg, (names, upper, height, xcoord, chains) in moves:
            if kind == "extend":
                site, step = arg
                cur, again = one_step_extension(cur, site)
                assert again == step, name
            elif kind == "eye":
                cur = restore_eyes(cur, [arg])
            elif kind == "glue":
                cur = glue_over_chain(cur, *arg)
                assert_same_lattice(cur.lattice, full_build(cur.lattice), name)
            else:
                with pytest.raises(EmbeddingFailed):
                    glue_over_chain(cur, *arg)
            lat = cur.lattice
            assert (lat.names, lat.upper_covers, lat.height, cur.xcoord) == \
                (names, upper, height, xcoord), (name, kind)
            walked = Diagram(lat, cur.xcoord).boundary  # walked afresh
            assert (walked.left_chain, walked.right_chain) == chains, (name, kind)
            made[kind] += 1
        assert cur == out, name
        assert out.lattice.n == n, name
    assert made["extend"] > 800 and made["eye"] > 500 and made["glue"] > 2000
    assert made["failed glue"] > 5  # each left the grower as it was


def test_every_candidate_check_on_the_grower_is_validate_diagrams_answer(monkeypatch):
    gluing, answers = [], Counter()  # the grower whose gluing is under way
    real_glue, real_conflict = _GrowingDiagram.glue, diagram._conflict

    def glue(grown, *args):
        gluing.append(grown)
        try:
            real_glue(grown, *args)
        finally:
            gluing.pop()

    def conflict(covers, height, points):
        found = real_conflict(covers, height, points)
        if not gluing:  # `validate_diagram`'s own sweep, below or in `generate`
            return found
        grown = gluing.pop()
        try:
            violation = validate_diagram(Diagram(grown.lattice(grown.names), grown.xcoord))
        finally:
            gluing.append(grown)
        if found is None:
            assert violation is None
        else:
            kind, pair = found
            assert violation.kind == kind
            assert kind == "duplicate_position" or violation.edges == pair
        answers[kind if found else None] += 1
        return found

    monkeypatch.setattr(_GrowingDiagram, "glue", glue)
    monkeypatch.setattr(diagram, "_conflict", conflict)
    for n, seed in SPECS:
        generate("random-sps", [n], seed=seed)
    oracles.s7_glued_corpus()
    assert answers[None] > 2000 and answers["edge_crossing"] > 100
    assert answers["duplicate_position"] > 10


def test_only_a_gluing_scales_a_grown_drawing(monkeypatch):
    # extensions and eyes append an x; the one scaling outside a gluing is
    # the walk of the input's boundary when a grower is made from it
    calls, real_scale = [], diagram._scaled_points

    def scaled(xs, heights):
        calls.append(len(xs))
        return real_scale(xs, heights)

    monkeypatch.setattr(diagram, "_scaled_points", scaled)
    slimmed = slim(generate("random-sps", [320]))[0]
    del calls[:]
    steps = rectangularize(slimmed)[1]
    assert (len(steps), len(calls)) == (4151, 1)

    cur = slim(generate("random-sps", [24]))[0]
    del calls[:]
    for _ in range(20):
        b = cur.boundary
        site = next(_sites(cur.lattice, [b.left_chain, b.right_chain]))[1]
        cur = one_step_extension(cur, site)[0]
    assert len(calls) == 1

    slimmed, records = slim(generate("random-sps", [160]))
    del calls[:]
    restore_eyes(slimmed, records)
    assert (len(records), len(calls)) == (18, 1)

    # a gluing scales each candidate drawing it checks, and a synthesized
    # drawing, checked on its own integer points, once more for its walk
    per_glue, checks = Counter(), [0, 0]  # per gluing: (candidates checked, synthesized)
    real_glue, real_conflict, real_synth = (_GrowingDiagram.glue, diagram._conflict,
                                            diagram.synthesize_embedding)

    def glue(grown, *args):
        del calls[:]
        checks[:] = [0, 0]
        try:
            real_glue(grown, *args)
        finally:
            assert len(calls) == checks[0] + checks[1]
            per_glue[tuple(checks)] += 1

    def conflict(*args):
        checks[0] += 1
        return real_conflict(*args)

    def synth(*args, **kwargs):
        found = real_synth(*args, **kwargs)
        checks[1] += found is not None
        return found

    monkeypatch.setattr(_GrowingDiagram, "glue", glue)
    monkeypatch.setattr(diagram, "_conflict", conflict)
    monkeypatch.setattr(diagram, "synthesize_embedding", synth)
    for n, seed in SMALL_SPECS:
        generators.random_sps_diagram(n, seed)
    oracles.s7_glued_corpus()
    assert sum(per_glue.values()) > 1500
    assert sum(k for (checked, _), k in per_glue.items() if checked > 1) > 100
    assert sum(k for (_, synthesized), k in per_glue.items() if synthesized) > 5


def checked_glue(lower, upper, iso, max_synth=16):
    """`glue_over_chain`, its lattice compared with a full build and its
    boundary with a fresh walk."""
    glued = glue_over_chain(lower, upper, iso, max_synth)
    assert_same_lattice(glued.lattice, full_build(glued.lattice), sorted(iso.items()))
    assert glued.boundary == Diagram(glued.lattice, glued.xcoord).boundary
    assert validate_diagram(glued) is None
    return glued


def test_every_gluing_of_the_test_corpora_equals_a_full_build(corpus, random_corpus_small,
                                                              m3, b2, monkeypatch):
    # the generators' gluings are compared in the replay above; here the
    # S_7 gluings and the reglued parts of every cut of the slim hulls
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return checked_glue(*args, **kwargs)

    monkeypatch.setattr(oracles, "glue_over_chain", counted)
    assert oracles.s7_glued_corpus()
    for name, diag in corpus + random_corpus_small:
        slimmed = slim(diag)[0]
        if slimmed.lattice.n <= 2:
            continue
        rect = rectangularize(slimmed)[0]
        if is_patch(rect):
            continue
        lat, b = rect.lattice, rect.boundary
        chain = b.left_chain
        for x in chain[chain.index(b.u_l) + 1:-1]:
            cut = decompose_at(rect, x, "left")
            labels = [lat.names[v] for v in cut.chain]
            counted(cut.bottom_part, cut.top_part, {c: c for c in labels})
    counted(m3, b2, {"m": "0", "1": "l"})  # drawn by synthesis
    assert len(calls) > 100


def test_a_failed_gluing_leaves_the_grower_as_it_was(m3, b2):
    grown = _GrowingDiagram(m3)
    before = state(grown), dict(grown.index), grown.top, grown.lo, grown.hi
    lat = m3.lattice
    pairs = [(lat.id_of("m"), b2.lattice.id_of("0")), (lat.top, b2.lattice.id_of("l"))]
    with pytest.raises(EmbeddingFailed, match="no planar drawing found for the 7-element"):
        grown.glue(b2, pairs, max_synth=0)
    assert (state(grown), dict(grown.index), grown.top, grown.lo, grown.hi) == before
    assert grown.diagram() == m3
    grown.glue(b2, pairs)  # and it still glues, by synthesis
    assert grown.diagram() == glue_over_chain(m3, b2, {"m": "0", "1": "l"})


def test_the_unchecked_chains_are_their_full_builds():
    for n in range(1, 9):
        chain = generators._chain(n)
        assert_same_lattice(chain.lattice, generate("chain", [n]).lattice, n)
        assert_same_lattice(chain.lattice, full_build(chain.lattice), n)
        assert chain.xcoord == generate("chain", [n]).xcoord
