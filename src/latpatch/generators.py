"""Deterministic corpus generators: chains, grids, diamonds and seeded
random planar semimodular lattices.

The random builder only composes operations that keep the class: gluing
over a chain, inserting an eye into a two-middle interval, and one-step
boundary extensions.  Equal seeds give byte-identical output.
"""

import random
from fractions import Fraction

from .core import Lattice, _first_unused, is_semimodular, iter_bits
from .diagram import Diagram, EyeRecord, _middles, restore_eyes, validate_diagram
from .errors import BadParams, EmbeddingFailed
from .ops import find_extension_sites, glue_over_chain, one_step_extension


def chain_diagram(n):
    """The n-element chain, drawn vertically."""
    if n < 1:
        raise BadParams("a chain needs at least one element")
    labels = [str(i) for i in range(n)]
    covers = list(zip(labels, labels[1:]))
    lat = Lattice(covers, elements=labels)
    return Diagram(lat, [0] * n)


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


def _two_middle_intervals(lat):
    """Pairs (o, i) whose interval has exactly two middles, by (o, i), each
    as it is found.  Only an o with two upper covers or more heads an
    interval with two middles."""
    upper, full = lat.upper_covers, lat.full_mask
    for o in range(lat.n):
        if len(upper[o]) > 1:
            for i, zs in sorted(_middles(lat, o, full).items()):
                if len(zs) == 2:
                    yield o, i


def _filter_chains(lat):
    """Elements b whose up-set [b, 1] is a chain, ascending by chain length.

    ↑b is a chain exactly when b is the top, or b has one upper cover c and
    ↑c is a chain: two covers of one element are incomparable, and ↑b is b
    and the up-sets of its covers.  So one pass from the top down, in
    reverse height order, finds every such b with its chain's length."""
    upper, length = lat.upper_covers, {}
    for b in sorted(range(lat.n), key=lat.height.__getitem__, reverse=True):
        if not upper[b]:
            length[b] = 1
        elif len(upper[b]) == 1 and upper[b][0] in length:
            length[b] = length[upper[b][0]] + 1
    return sorted((k, b) for b, k in length.items())


def random_sps_diagram(target, seed):
    """A valid planar semimodular diagram with exactly `target` elements."""
    if target < 2:
        raise BadParams("random lattices need at least two elements")
    rng = random.Random(seed)
    cur = chain_diagram(2)
    eye_counter = 1
    while cur.lattice.n < target:
        room = target - cur.lattice.n
        moves = ["stack"]
        sites = find_extension_sites(cur)
        if sites:
            moves.append("extend")
        if next(_two_middle_intervals(cur.lattice), None):  # listed only for an eye
            moves.append("eye")
        if room >= 3:
            moves.append("glue")
        move = rng.choice(moves)
        if move == "extend":
            cur, _ = one_step_extension(cur, rng.choice(sites))
        elif move == "eye":
            lat = cur.lattice
            o, i = rng.choice(list(_two_middle_intervals(lat)))
            label, eye_counter = _first_unused("e", lat.index, eye_counter)
            cur = restore_eyes(cur, [EyeRecord(lat.names[o], lat.names[i], 1, label)])
        elif move == "stack":
            piece = chain_diagram(rng.randint(2, min(room + 1, 4)))
            top_label = cur.lattice.names[cur.lattice.top]
            cur = glue_over_chain(cur, piece, {top_label: piece.lattice.names[0]})
        else:
            cur = _try_glue(cur, room, rng) or cur
    return cur


def _try_glue(cur, room, rng):
    """Glue a small generated piece above the current lattice over a longer
    chain when a planar drawing works out; None when it does not."""
    lat = cur.lattice
    chains = [entry for entry in _filter_chains(lat) if entry[0] >= 2]
    if not chains:
        return None
    length, b = rng.choice(chains)
    piece = _piece_with_ideal_chain(length, room, rng)
    if piece is None:
        return None
    plat = piece.lattice
    dom = sorted(iter_bits(lat.up[b]), key=lat.height.__getitem__)
    img = sorted(iter_bits(plat.down[_chain_top(plat, length)]), key=plat.height.__getitem__)
    iso = {lat.names[d]: plat.names[i] for d, i in zip(dom, img)}
    try:
        return glue_over_chain(cur, piece, iso)
    except EmbeddingFailed:
        return None


def _chain_top(plat, length):
    """The id at height length-1 on the piece lattice's ideal chain."""
    v = plat.bottom
    for _ in range(length - 1):
        v = plat.upper_covers[v][0]
    return v


def _piece_with_ideal_chain(length, room, rng):
    """A small generated diagram whose bottom interval of the given length
    is a chain, small enough to add at most `room` elements."""
    candidates = []
    for n in range(length + 1, length + 4):
        if n - length <= room:
            candidates.append(("chain", n))
    for rows in (2, 3):
        n = rows * length
        extra = n - length
        if 0 < extra <= room and length >= 2:
            candidates.append(("grid", rows))
    if not candidates:
        return None
    kind, p = rng.choice(candidates)
    if kind == "chain":
        return chain_diagram(p)
    return grid_diagram(p, length)


def generate(kind, params, seed=0):
    """Build a named corpus diagram; deterministic for fixed arguments."""
    params = list(params)
    try:
        if kind == "chain":
            (n,) = params
            out = chain_diagram(n)
        elif kind == "grid":
            m, n = params
            out = grid_diagram(m, n)
        elif kind == "diamond":
            (k,) = params
            out = diamond_diagram(k)
        elif kind == "random-sps":
            (target,) = params
            out = random_sps_diagram(target, seed)
        else:
            raise BadParams(f"unknown generator kind {kind!r}")
    except (ValueError, TypeError):
        raise BadParams(f"wrong parameters for {kind!r}: {params!r}")
    violation = validate_diagram(out)
    if violation is not None:
        raise BadParams(f"generator produced an invalid drawing: {violation.detail}")
    if not is_semimodular(out.lattice):
        raise BadParams("generator produced a non-semimodular lattice")
    return out
