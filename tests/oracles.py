"""Independent reference implementations used to compute expected values.

Everything here works on labeled cover lists from first principles
(closure by repeated squaring, bound scans, downset enumeration,
permutation search) and never touches the package's derived tables.
The drawing references take element ids, cover pairs of ids and
`Fraction` x coordinates, and do their geometry on the rational points.
The slimming reference removes one eye per round, each time rebuilding and
validating the lattice in full from its labeled covers.  There are two
exceptions.  `walked_interval_rectangular` reuses the package's boundary
walk: it is the reference for the drawing-free test of a part of a cut.
`witness_reason` is `validate_witness` on the package's mask tests: it is
the reference for the reasons that `validate_witness` gives.
The document references build each document as a dict and write it with
`json.dumps(..., sort_keys=True, indent=2)`.
The fork inputs are slim semimodular lattices that the generators never
produce: a grid with a fork added to one 4-cell, built from its labeled
covers, and S_7 glued by the package's `glue_over_chain` over a 2-element
chain above or below a grid or a chain.  `with_eyes` puts eyes back into
such an input with the package's `restore_eyes`, at two-middle intervals
found on its labeled covers.
The site process reference grows a hull one step at a time, each at the
first site of a fresh scan of both boundary chains, on plain cover lists.
The small-lattice enumeration lists every lattice with a few elements, up
to isomorphism, from naturally labelled posets and relabelling search, and
the planarity reference tests order dimension at most 2 by trying linear
extensions.
"""

import json
import random
from fractions import Fraction
from itertools import permutations, product

from latpatch import (DecompLeaf, Diagram, EyeRecord, Lattice, find_eyes,
                      generate, glue_over_chain, is_semimodular, restore_eyes)
from latpatch.core import _is_chain_mask, _is_filter_mask, _is_ideal_mask, iter_bits
from latpatch.errors import EmbeddingFailed
from latpatch.diagram import _rectangular, _walk


def closure_leq(covers, elements):
    """Reflexive-transitive closure as a set of (lo, hi) label pairs."""
    leq = {(e, e) for e in elements}
    leq |= set(covers)
    changed = True
    while changed:
        changed = False
        for a, b in list(leq):
            for c, d in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    return leq


def covers_of_leq(leq, elements):
    """Transitive reduction of a strict order given as a leq set."""
    out = set()
    for a in elements:
        for b in elements:
            if a == b or (a, b) not in leq:
                continue
            if not any(z not in (a, b) and (a, z) in leq and (z, b) in leq
                       for z in elements):
                out.add((a, b))
    return out


def lub(leq, elements, a, b):
    """The least upper bound, or None when it does not exist uniquely."""
    uppers = [z for z in elements if (a, z) in leq and (b, z) in leq]
    least = [u for u in uppers if all((u, v) in leq for v in uppers)]
    return least[0] if len(least) == 1 else None


def glb(leq, elements, a, b):
    lowers = [z for z in elements if (z, a) in leq and (z, b) in leq]
    greatest = [u for u in lowers if all((v, u) in leq for v in lowers)]
    return greatest[0] if len(greatest) == 1 else None


def _closed_parts(leq, elements, below, bound):
    """Nonempty sets closed downward under `below` and under `bound`,
    found by walking a linear extension and adding an element only when
    everything below it is already in; each set is a list in the order
    of `elements`."""
    order = sorted(elements, key=lambda e: sum(below(z, e) for z in elements))
    found = []

    def extend(i, chosen):
        if i == len(order):
            if chosen:
                found.append(chosen)
            return
        extend(i + 1, chosen)
        e = order[i]
        if all(z in chosen for z in elements if z != e and below(z, e)):
            extend(i + 1, chosen | {e})

    extend(0, frozenset())
    closed = [p for p in found
              if all(bound(leq, elements, a, b) in p for a in p for b in p)]
    return [[e for e in elements if e in p] for p in closed]


def ideals_and_filters(leq, elements):
    """All ideals (join-closed downsets) and all filters (meet-closed
    upsets), each a label list in the order of `elements`."""
    ideals = _closed_parts(leq, elements, lambda z, e: (z, e) in leq, lub)
    filters = _closed_parts(leq, elements, lambda z, e: (e, z) in leq, glb)
    return ideals, filters


def gluing_witnesses(covers, elements):
    """Every proper chain-gluing witness (A, B, C) of the lattice, each part
    a label list in the order of `elements`.  Smallest ideal first: ideals
    and filters are ordered by size, then by their members' positions."""
    leq = closure_leq(covers, elements)
    ideals, filters = ideals_and_filters(leq, elements)
    position = {e: i for i, e in enumerate(elements)}

    def key(part):
        return len(part), [position[e] for e in part]

    out = []
    for a in sorted(ideals, key=key):
        for b in sorted(filters, key=key):
            if len(a) == len(elements) or len(b) == len(elements):
                continue
            if set(a) | set(b) != set(elements):
                continue
            c = [e for e in a if e in b]
            if c and all((x, y) in leq or (y, x) in leq for x in c for y in c):
                out.append((a, b, c))
    return out


def witness_reason(w):
    """`validate_witness` on masks, clause by clause: the reference for its
    reasons and their order.  A and B are decided by the members their
    masks list, ascending, and C's order by its mask's members sorted by
    height (see `core._is_ideal_mask`)."""
    amb = w.ambient
    if not w.A or not w.B:
        return "empty part"
    a_mask = amb.mask_of(w.A)
    b_mask = amb.mask_of(w.B)
    if not _is_ideal_mask(amb, a_mask):
        return "A is not an ideal"
    if not _is_filter_mask(amb, b_mask):
        return "B is not a filter"
    c_mask = a_mask & b_mask
    if amb.mask_of(w.C) != c_mask:
        return "C is not A ∩ B"
    if not c_mask:
        return "overlap is empty"
    if not _is_chain_mask(amb, c_mask):
        return "overlap is not a chain"
    if a_mask | b_mask != amb.full_mask:
        return "A ∪ B does not cover the lattice"
    if not w.proper:
        return "witness is not proper"
    return None


def brute_semimodular(covers, elements):
    """Cover-form semimodularity straight from the definitions."""
    leq = closure_leq(covers, elements)
    cov = covers_of_leq(leq, elements)
    for a in elements:
        for b in elements:
            m = glb(leq, elements, a, b)
            if (m, a) in cov:
                j = lub(leq, elements, a, b)
                if (b, j) not in cov:
                    return False
    return True


def brute_isomorphic(covers1, elements1, covers2, elements2):
    """Try every bijection; only sensible for at most ~8 elements."""
    if len(elements1) != len(elements2):
        return False
    set2 = set(covers2)
    for perm in permutations(elements2):
        send = dict(zip(elements1, perm))
        if {(send[a], send[b]) for a, b in covers1} == set2:
            return True
    return False


def _natural_posets(k):
    """Every strict order on 0..k-1 that refines the integer order, each as
    the tuple of the sets of elements below 0, 1, …, k-1.  Element j gets
    every down-closed subset of 0..j-1 as the elements below it."""
    posets = [()]
    for j in range(k):
        grown = []
        for below in posets:
            for picks in product((False, True), repeat=j):
                chosen = {i for i in range(j) if picks[i]}
                if all(below[i] <= chosen for i in chosen):
                    grown.append(below + (frozenset(chosen),))
        posets = grown
    return posets


def _has_joins(below, k):
    """Whether the naturally labelled poset `below` on 0..k-1, with a bottom
    and a top added, is a lattice: the common upper bounds of each pair of
    inner elements, as a bit mask, are none (the join is the top) or
    exactly the elements above one of them."""
    up = [1 << i for i in range(k)]
    for j in range(k):
        for i in below[j]:
            up[i] |= 1 << j
    ups = set(up)
    return all(not up[i] & up[j] or up[i] & up[j] in ups
               for i in range(k) for j in range(i))


def _canonical(pairs, k):
    """A canonical form of the strict order `pairs` on 0..k-1: the sorted
    numbers of elements below and above each element, and the least sorted
    relation over the relabellings that list the elements in that order.
    Isomorphic orders get the same form, and the relation determines the
    order up to isomorphism.  Only relabellings inside each class of equal
    counts are tried, far fewer than all k!."""
    key = [[0, 0] for _ in range(k)]
    for i, j in pairs:
        key[j][0] += 1
        key[i][1] += 1
    key = [tuple(c) for c in key]
    classes = {}
    for v in sorted(range(k), key=key.__getitem__):
        classes.setdefault(key[v], []).append(v)

    def relation(picks):
        position = {v: p for p, v in enumerate(v for vs in picks for v in vs)}
        return tuple(sorted((position[i], position[j]) for i, j in pairs))

    relabellings = product(*[permutations(vs) for vs in classes.values()])
    return tuple(sorted(key)), min(map(relation, relabellings))


def small_lattices(n):
    """Every lattice with n ≥ 2 elements up to isomorphism, each as its
    element labels and its cover pairs.  Each naturally labelled poset on
    n - 2 inner elements gets a bottom "0" and a top "1"; it is kept when
    every pair has a join, and only at the first poset of its canonical
    form (`_canonical`).  Every finite lattice arises: its inner elements
    have a natural labelling, any linear extension.  Sensible for n ≤ 8."""
    k = n - 2
    inner = [chr(ord("a") + i) for i in range(k)]
    elements = ["0"] + inner + ["1"]
    position = {e: i for i, e in enumerate(elements)}
    seen, out = set(), []
    for below in _natural_posets(k):
        if not _has_joins(below, k):
            continue
        pairs = {(i, j) for j in range(k) for i in below[j]}
        canonical = _canonical(pairs, k)
        if canonical not in seen:
            seen.add(canonical)
            leq = {(e, e) for e in elements} | {("0", e) for e in elements}
            leq |= {(e, "1") for e in elements}
            leq |= {(inner[i], inner[j]) for i, j in pairs}
            covers = sorted(covers_of_leq(leq, elements),
                            key=lambda c: (position[c[0]], position[c[1]]))
            out.append((elements, covers))
    return out


def order_dimension_at_most_2(covers, elements):
    """Whether the order has dimension at most 2, which for a finite
    lattice is planarity (Baker, Fishburn and Roberts, 1972).  That holds
    iff some linear extension, reversed on the incomparable pairs, is again
    a linear order; the linear extensions are tried one by one."""
    leq = closure_leq(covers, elements)

    def extensions(prefix, rest):
        if not rest:
            yield prefix
        for e in rest:
            if all((z, e) not in leq for z in rest if z != e):
                yield from extensions(prefix + [e], [z for z in rest if z != e])

    for line in extensions([], list(elements)):
        place = {e: i for i, e in enumerate(line)}

        def before(a, b):
            # the second order: the first's order on comparable pairs,
            # reversed on incomparable ones
            if (a, b) in leq or (b, a) in leq:
                return place[a] < place[b]
            return place[b] < place[a]

        if all(not (before(a, b) and before(b, c)) or before(a, c)
               for a in elements for b in elements for c in elements
               if len({a, b, c}) == 3):
            return True
    return False


def product_chain_covers(m, n):
    """Cover pairs of the product of an m-chain and an n-chain."""
    covers = []
    for i, j in product(range(m), range(n)):
        if i + 1 < m:
            covers.append(((i, j), (i + 1, j)))
        if j + 1 < n:
            covers.append(((i, j), (i, j + 1)))
    return covers, list(product(range(m), range(n)))


def segments_cross(p1, q1, p2, q2):
    """Exact segment-intersection oracle via orientation determinants;
    True when the closed segments meet outside a shared endpoint."""

    def orient(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    shared = {p1, q1} & {p2, q2}
    o1, o2 = orient(p1, q1, p2), orient(p1, q1, q2)
    o3, o4 = orient(p2, q2, p1), orient(p2, q2, q1)
    if o1 == o2 == 0:
        pts = sorted([p1, q1]), sorted([p2, q2])
        lo = max(pts[0][0], pts[1][0])
        hi = min(pts[0][1], pts[1][1])
        return lo < hi
    if 0 in (o1, o2, o3, o4):
        for o, pt, seg in ((o1, p2, (p1, q1)), (o2, q2, (p1, q1)),
                           (o3, p1, (p2, q2)), (o4, q1, (p2, q2))):
            if o == 0 and min(seg) < pt < max(seg) and pt not in shared:
                return True
        return False
    return (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0)


def heights(n, covers):
    """Length of the longest cover chain from a minimal element to each element."""
    height = [0] * n
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            if height[a] + 1 > height[b]:
                height[b] = height[a] + 1
                changed = True
    return height


def drawing_violation(names, covers, xs):
    """The first violation of a drawing as (kind, detail, edges), or None.

    The rational formulation of the drawing check: duplicate positions in
    element order, then rising covers, then every pair of covers, ordered
    by their lower heights, tested with `segments_cross`.  Covers whose
    height ranges are disjoint cannot meet, so a sweep that skips them
    finds the same first pair.
    """
    height = heights(len(names), covers)
    points = [(x, height[v]) for v, x in enumerate(xs)]
    seen = {}
    for v, pt in enumerate(points):
        if pt in seen:
            return ("duplicate_position",
                    f"{names[seen[pt]]!r} and {names[v]!r} share {pt}", ())
        seen[pt] = v
    covers = sorted(covers)
    for a, b in covers:
        if height[b] <= height[a]:
            return ("non_monotone_edge",
                    f"edge ({names[a]!r}, {names[b]!r}) does not rise", ())
    edges = sorted(covers, key=lambda e: (height[e[0]], e))
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            if segments_cross(points[a], points[b], points[c], points[d]):
                return ("edge_crossing",
                        f"edges ({names[a]!r}, {names[b]!r}) and "
                        f"({names[c]!r}, {names[d]!r}) intersect",
                        ((a, b), (c, d)))
    return None


def boundary_chains(n, covers, xs):
    """The left and right boundary chains: from the bottom, always step to
    the angularly leftmost (rightmost) upper cover; among equal directions
    the smallest id wins."""
    height = heights(n, covers)
    upper = [sorted(b for a, b in covers if a == v) for v in range(n)]
    bottom = next(v for v in range(n) if all(b != v for _, b in covers))
    top = next(v for v in range(n) if not upper[v])

    def walk(side):
        chain = [bottom]
        while chain[-1] != top:
            v = chain[-1]
            best = None
            for w in upper[v]:
                if best is None:
                    best = w
                    continue
                cross = ((xs[best] - xs[v]) * (height[w] - height[v])
                         - (height[best] - height[v]) * (xs[w] - xs[v]))
                if cross > 0 if side == "left" else cross < 0:
                    best = w
            chain.append(best)
        return tuple(chain)

    return walk("left"), walk("right")


def eyes_by_candidate(diag):
    """(id, record) of every eye, each candidate on its own: an m with one
    lower cover o and one upper cover i, from the labeled covers, that is
    neither the leftmost nor the rightmost of the atoms of [o, i] (the
    covers of o below i, by the closure), sorted by x afresh."""
    lat = diag.lattice
    names = list(lat.names)
    covers = [(names[a], names[b]) for a, b in lat.covers]
    leq = closure_leq(covers, names)
    x_of = dict(zip(names, diag.xcoord))
    out = []
    for m, label in enumerate(names):
        lower = [a for a, b in covers if b == label]
        upper = [b for a, b in covers if a == label]
        if len(lower) != 1 or len(upper) != 1:
            continue
        (o,), (i,) = lower, upper
        atoms = sorted((b for a, b in covers if a == o and (b, i) in leq),
                       key=x_of.__getitem__)
        slot = atoms.index(label)
        if 0 < slot < len(atoms) - 1:
            out.append((m, EyeRecord(o, i, slot, label)))
    return out


def without_element(diag, v):
    """The diagram without element v, its lattice built and validated in
    full from the covers that do not touch v."""
    lat = diag.lattice
    covers = [(lat.names[a], lat.names[b]) for a, b in lat.covers if v not in (a, b)]
    names = lat.names[:v] + lat.names[v + 1:]
    return Diagram(Lattice(covers, elements=names), diag.xcoord[:v] + diag.xcoord[v + 1:])


def slim_by_rounds(diag):
    """Remove eyes one round at a time: scan with `find_eyes`, drop the
    first eye found, repeat until none is left.  The slim diagram and the
    records of the rounds, in order."""
    records = []
    while True:
        eyes = find_eyes(diag)
        if not eyes:
            return diag, records
        m, rec = eyes[0]
        records.append(rec)
        diag = without_element(diag, m)


def walked_interval_rectangular(lat, points, y, x):
    """`is_rectangular` of the interval [y, x] drawn at the scaled `points`,
    by walking the part derived on it, on its members' points: its
    boundary chains hold one weak corner each, and the two are
    complementary in it."""
    members = iter_bits(lat.up[y] & lat.down[x])
    part = lat._derived(members, y, x)
    b = _walk(part, [points[v] for v in members])
    return _rectangular(part, b.u_l, b.u_r, part.bottom, part.top)


def rational_text(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def lattice_document(diag, meta=None):
    """The lattice document of a diagram as a dict."""
    lat = diag.lattice
    return {
        "elements": list(lat.names),
        "covers": [[a, b] for a, b in lat.covers],
        "embedding": {lat.names[v]: rational_text(diag.xcoord[v]) for v in range(lat.n)},
        "meta": dict(meta) if meta else {},
    }


def tree_document(node):
    """The tree document of a decomposition tree as a dict, every occurrence
    of a shared subtree in full."""
    if isinstance(node, DecompLeaf):
        return {"kind": "leaf", "lattice": lattice_document(node.diagram)}
    return {
        "kind": "glue",
        "lattice": lattice_document(node.diagram),
        "chain": node.diagram.lattice.labels(node.witness.C),
        "children": [tree_document(node.left), tree_document(node.right)],
    }


def json_reference(doc):
    """The text `serialize` and `serialize_tree` must write for `doc`."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- forks -------------------------------------------------------------------

def grid_with_fork(m, n, p, q):
    """The m × n grid with a fork added to its 4-cell whose top is (p, q),
    1 ≤ p < m and 1 ≤ q < n, drawn; element (i, j) is labelled "i.j" and
    drawn at x = j - i, so i grows to the left.

    The fork (Czédli–Schmidt, *Slim semimodular lattices. I*) puts s inside
    the cell, s ≺ (p, q), and splits the edges below it down to the
    boundary: l_k on (p-1, q-k) ≺ (p, q-k) for k = 1..q, and r_k on
    (p-k, q-1) ≺ (p-k, q) for k = 1..p, each at its edge's midpoint, with
    s covering l_1 and r_1 and each l_k, r_k covering l_{k+1}, r_{k+1}.
    B2 with a fork is S_7."""
    def g(i, j):
        return f"{i}.{j}"

    split = {(g(p - 1, q - k), g(p, q - k)): f"l{k}" for k in range(1, q + 1)}
    split |= {(g(p - k, q - 1), g(p - k, q)): f"r{k}" for k in range(1, p + 1)}
    covers = []
    for (i, j), (i2, j2) in product_chain_covers(m, n)[0]:
        edge = (g(i, j), g(i2, j2))
        if edge in split:
            covers += [(edge[0], split[edge]), (split[edge], edge[1])]
        else:
            covers.append(edge)
    covers += [("l1", "s"), ("r1", "s"), ("s", g(p, q))]
    covers += [(f"l{k + 1}", f"l{k}") for k in range(1, q)]
    covers += [(f"r{k + 1}", f"r{k}") for k in range(1, p)]
    x_of = {g(i, j): Fraction(j - i) for i, j in product(range(m), range(n))}
    x_of["s"] = Fraction(q - p)
    for (lo, hi), label in split.items():
        x_of[label] = (x_of[lo] + x_of[hi]) / 2
    names = list(x_of)
    return Diagram(Lattice(covers, elements=names), [x_of[v] for v in names])


def fork_corpus():
    """(name, diagram) of every grid from 2 × 2 to 4 × 4 with one fork in
    one of its 4-cells; the first is S_7, B2 with a fork."""
    return [(f"grid{m}x{n}+fork@{p}.{q}", grid_with_fork(m, n, p, q))
            for m in range(2, 5) for n in range(2, 5)
            for p in range(1, m) for q in range(1, n)]


def s7_glued_corpus():
    """(name, diagram) of S_7 glued over a 2-element chain above and below
    the grids 2 × 3, 2 × 4, 3 × 3 and 3 × 4 and the 4-element chain: an
    edge d ≺ 1 of the lower piece is identified with an edge 0 ≺ a of the
    upper one, in every way.  Only the gluings that `glue_over_chain` can
    draw and that are semimodular are kept."""
    s7 = grid_with_fork(2, 2, 1, 1)
    others = [(f"grid{m}x{n}", generate("grid", [m, n]))
              for m in (2, 3) for n in (3, 4)]
    others.append(("chain4", generate("chain", [4])))
    out = []
    for name, other in others:
        for where, lower, upper in (("above", other, s7), ("below", s7, other)):
            la, lb = lower.lattice, upper.lattice
            for d in la.lower_covers[la.top]:
                for a in lb.upper_covers[lb.bottom]:
                    iso = {la.names[d]: lb.names[lb.bottom],
                           la.names[la.top]: lb.names[a]}
                    try:
                        glued = glue_over_chain(lower, upper, iso)
                    except EmbeddingFailed:
                        continue
                    if is_semimodular(glued.lattice):
                        out.append((f"s7 {where} {name} over {sorted(iso.items())}",
                                    glued))
    return out


def with_eyes(diag, k, seed):
    """`diag` with up to k eyes put back one at a time, each the one eye of
    an interval [o, i] with exactly two middles, drawn by a seeded
    `random.Random` from those intervals sorted by label, and labelled
    "e1", "e2", … (primed while taken).  Stops early when no interval has
    two middles."""
    rng = random.Random(seed)
    for j in range(1, k + 1):
        lat = diag.lattice
        upper = {}
        for a, b in lat.covers:
            upper.setdefault(lat.names[a], []).append(lat.names[b])
        spots = []
        for o, ups in upper.items():
            tops = [i for z in ups for i in upper.get(z, ())]
            spots += [(o, i) for i in set(tops) if tops.count(i) == 2]
        if not spots:
            break
        o, i = rng.choice(sorted(spots))
        label = f"e{j}"
        while label in lat.names:
            label += "'"
        diag = restore_eyes(diag, [EyeRecord(o, i, 1, label)])
    return diag


def site_process_by_steps(diag):
    """The rectangular hull's site process one step at a time: scan the
    left boundary chain bottom-up, then the right one, for the first site
    a ≺ b ≺ c (a with one upper cover, c with one lower cover), add t with
    a ≺ t ≺ c only in place of b, and scan again from the bottom, until no
    site is left.  Returns the final chains, the upper and lower cover
    lists by id (a new t takes the next id), the links lo and hi (v and v
    for an element of `diag`, lo(a) and hi(c) for t) and one (a, b, c,
    side) tuple of ids per step."""
    lat, b = diag.lattice, diag.boundary
    upper = [list(ws) for ws in lat.upper_covers]
    lower = [list(ws) for ws in lat.lower_covers]
    chains = (list(b.left_chain), list(b.right_chain))
    lo, hi, steps = list(range(lat.n)), list(range(lat.n)), []
    while True:
        found = next(((side, chain, i)
                      for side, chain in zip(("left", "right"), chains)
                      for i in range(len(chain) - 2)
                      if len(upper[chain[i]]) == 1 and len(lower[chain[i + 2]]) == 1),
                     None)
        if found is None:
            return chains, upper, lower, lo, hi, steps
        side, chain, i = found
        a, mid, c = chain[i:i + 3]
        t = len(upper)
        upper[a].append(t)
        lower[c].append(t)
        upper.append([c])
        lower.append([a])
        lo.append(lo[a])
        hi.append(hi[c])
        steps.append((a, mid, c, side))
        chain[i + 1] = t
