"""Deterministic corpus generators: chains, grids, diamonds and seeded
random planar semimodular lattices.

The random builder only composes operations that keep the class: gluing
over a chain, inserting an eye into a two-middle interval, and one-step
boundary extensions.  Equal seeds give byte-identical output.
"""

import random
from fractions import Fraction
from functools import cache

from .core import Lattice, _first_unused, is_semimodular
from .diagram import (Diagram, EyeRecord, _GrowingDiagram, _middles,
                      validate_diagram)
from .errors import AssertionFailed, BadParams, EmbeddingFailed
from .ops import _sites


def _built(grown, xcoord):
    """The diagram at `xcoord` of the lattice that `grown`, a `Lattice` or a
    grower, holds, built in full from its labels and cover lists: every
    lattice axiom is checked."""
    names = grown.names
    covers = [(names[v], names[w]) for v, ws in enumerate(grown.upper_covers) for w in ws]
    return Diagram(Lattice(covers, elements=names), xcoord)


def _chain(n):
    """The n-element chain labelled 0, …, n − 1 from the bottom and drawn
    vertically, unchecked, since a chain is a lattice; the random
    generator's chain pieces."""
    ids = range(n)
    lat = Lattice._trusted(tuple(map(str, ids)), tuple((v,) for v in ids[1:]) + ((),),
                           ((),) + tuple((v,) for v in ids[:-1]), ids, 0, n - 1)
    return Diagram(lat, (Fraction(0),) * n)


def chain_diagram(n):
    """The n-element chain, drawn vertically."""
    if n < 1:
        raise BadParams("a chain needs at least one element")
    chain = _chain(n)
    return _built(chain.lattice, chain.xcoord)


def grid_diagram(m, n):
    """The product of an m-chain and an n-chain, drawn as a rhombus."""
    if m < 1 or n < 1:
        raise BadParams("grid sides must be positive")
    covers = []
    for i in range(m):
        for j in range(n):
            if i + 1 < m:
                covers.append((f"{i},{j}", f"{i + 1},{j}"))
            if j + 1 < n:
                covers.append((f"{i},{j}", f"{i},{j + 1}"))
    elements = [f"{i},{j}" for i in range(m) for j in range(n)]
    lat = Lattice(covers, elements=elements)
    xs = [Fraction(int(name.split(",")[0]) - int(name.split(",")[1]))
          for name in lat.names]
    return Diagram(lat, xs)


def diamond_diagram(k):
    """M_k: bottom, k pairwise incomparable atoms, top."""
    if k < 3:
        raise BadParams("a diamond needs at least three atoms")
    atoms = [f"a{j}" for j in range(1, k + 1)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    lat = Lattice(covers, elements=["0"] + atoms + ["1"])
    xs = {a: Fraction(2 * j - (k - 1), 2) for j, a in enumerate(atoms)}
    return Diagram(lat, [xs.get(name, Fraction(0)) for name in lat.names])


def _two_middle_intervals(grown):
    """Pairs (o, i) whose interval has exactly two middles, by (o, i), each
    as it is found.  Only an o with two upper covers or more heads an
    interval with two middles."""
    for o, ups in enumerate(grown.upper_covers):
        if len(ups) > 1:  # the mask -1 holds every id
            for i, zs in sorted(_middles(grown, o, -1).items()):
                if len(zs) == 2:
                    yield o, i


def _filter_chains(grown):
    """Elements b whose up-set [b, 1] is a chain, ascending by chain length.

    ↑b is a chain exactly when b is the top, or b has one upper cover c and
    ↑c is a chain: two covers of one element are incomparable, and ↑b is b
    and the up-sets of its covers.  So one pass from the top down, in
    reverse height order, finds every such b with its chain's length."""
    upper, length = grown.upper_covers, {}
    for b in sorted(range(len(upper)), key=grown.height.__getitem__, reverse=True):
        if not upper[b]:
            length[b] = 1
        elif len(upper[b]) == 1 and upper[b][0] in length:
            length[b] = length[upper[b][0]] + 1
    return sorted((k, b) for b, k in length.items())


def random_sps_diagram(target, seed):
    """A valid planar semimodular diagram with exactly `target` elements.

    Every move is a method of one grown diagram
    (`diagram._GrowingDiagram`): a one-step extension (`extend`, at a
    site's chain position from `ops._sites`), an eye (`add_eye`), and a
    stack or glue move, which glues a generated piece on top over a chain
    (`glue`).  Each piece shape, a chain or a grid, is built once per
    call: a gluing only reads its piece.  The result is built in full once,
    at the end, with every lattice axiom checked."""
    if target < 2:
        raise BadParams("random lattices need at least two elements")
    rng = random.Random(seed)
    chain, grid = cache(_chain), cache(grid_diagram)  # this call's pieces alone
    grown = _GrowingDiagram(_chain(2))
    eye_counter = 1
    while len(grown.height) < target:
        room = target - len(grown.height)
        moves = ["stack"]
        sites = list(_sites(grown, grown.chains))
        if sites:
            moves.append("extend")
        if next(_two_middle_intervals(grown), None):  # listed only for an eye
            moves.append("eye")
        if room >= 3:
            moves.append("glue")
        move = rng.choice(moves)
        if move == "extend":
            i, site = rng.choice(sites)
            grown.extend(site[3], i)
        elif move == "eye":
            o, i = rng.choice(list(_two_middle_intervals(grown)))
            label, eye_counter = _first_unused("e", grown.index, eye_counter)
            names = grown.names
            grown.add_eye(EyeRecord(names[o], names[i], 1, label))
        elif move == "stack":
            piece = chain(rng.randint(2, min(room + 1, 4)))
            grown.glue(piece, [(grown.top, piece.lattice.bottom)])
        else:
            _try_glue(grown, room, rng, chain, grid)
    return _built(grown, grown.xcoord)


def _chain_up(upper, v, length):
    """The `length` elements from v up along first upper covers."""
    chain = [v]
    for _ in range(length - 1):
        chain.append(upper[chain[-1]][0])
    return chain


def _try_glue(grown, room, rng, chain, grid):
    """Glue a small generated piece above the grown diagram over a longer
    chain when a planar drawing works out; else leave it as it is.
    `chain` and `grid` build the pieces (`random_sps_diagram`).

    Some ↑b is a chain of two or more: a coatom b's only upper cover is the
    top, and a lattice of two or more elements has a coatom."""
    length, b = rng.choice([entry for entry in _filter_chains(grown) if entry[0] >= 2])
    piece = _piece_with_ideal_chain(length, room, rng, chain, grid)
    # ↑b is a chain, and so is the piece's bottom interval of that length
    plat = piece.lattice
    dom = _chain_up(grown.upper_covers, b, length)
    img = _chain_up(plat.upper_covers, plat.bottom, length)
    try:
        grown.glue(piece, list(zip(dom, img)))
    except EmbeddingFailed:
        pass


def _piece_with_ideal_chain(length, room, rng, chain, grid):
    """A small generated diagram whose bottom interval of the given length
    (two or more) is a chain, small enough to add at most `room` elements.

    A glue move is offered only when room ≥ 3, so each of the three chain
    pieces, which add one to three elements, fits; a grid of `rows` rows
    adds (rows − 1) · length ≥ 2."""
    candidates = [("chain", n) for n in range(length + 1, length + 4)]
    candidates += [("grid", rows) for rows in (2, 3) if (rows - 1) * length <= room]
    kind, p = rng.choice(candidates)
    if kind == "chain":
        return chain(p)
    return grid(p, length)


# the number of integer parameters each generator takes
_ARITY = {"chain": 1, "grid": 2, "diamond": 1, "random-sps": 1}


def generate(kind, params, seed=0):
    """Build a named corpus diagram; deterministic for fixed arguments.

    The kind and the number and type of the parameters are checked before
    the generator runs, so `BadParams` names bad parameters only; an
    invalid result is a fault of the generator (`AssertionFailed`)."""
    params = list(params)
    if kind not in _ARITY:
        raise BadParams(f"unknown generator kind {kind!r}")
    if len(params) != _ARITY[kind] or not all(isinstance(p, int) for p in params):
        raise BadParams(f"wrong parameters for {kind!r}: {params!r}")
    if kind == "chain":
        out = chain_diagram(*params)
    elif kind == "grid":
        out = grid_diagram(*params)
    elif kind == "diamond":
        out = diamond_diagram(*params)
    else:
        out = random_sps_diagram(*params, seed)
    violation = validate_diagram(out)
    if violation is not None:
        raise AssertionFailed(f"generator produced an invalid drawing: {violation.detail}")
    if not is_semimodular(out.lattice):
        raise AssertionFailed("generator produced a non-semimodular lattice")
    return out
