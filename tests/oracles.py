"""Independent reference implementations used to compute expected values.

Everything here works on labeled cover lists from first principles
(closure by repeated squaring, bound scans, downset enumeration,
permutation search) and never touches the package's derived tables.
"""

from itertools import permutations, product


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
