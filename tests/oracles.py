"""Independent reference implementations used to compute expected values.

Everything here works on labeled cover lists from first principles
(closure by repeated squaring, bound scans, downset enumeration,
permutation search) and never touches the package's derived tables.
The drawing references take element ids, cover pairs of ids and
`Fraction` x coordinates, and do their geometry on the rational points.
The slimming reference removes one eye per round, each time rebuilding and
validating the lattice in full from its labeled covers.  The one exception
is `walked_interval_rectangular`, which reuses the package's boundary walk:
it is the reference for the drawing-free test of a part of a cut.
The document references build each document as a dict and write it with
`json.dumps(..., sort_keys=True, indent=2)`.
"""

import json
from itertools import permutations, product

from latpatch import DecompLeaf, Diagram, EyeRecord, Lattice, find_eyes
from latpatch.diagram import _interval_boundary, _rectangular


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
    by walking: its boundary chains hold one weak corner each, and the two
    are complementary in it."""
    b = _interval_boundary(lat, points, y, x)
    return _rectangular(lat, b.u_l, b.u_r, y, x)


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
