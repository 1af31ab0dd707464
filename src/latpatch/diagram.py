"""Planar Hasse-diagram embeddings and the predicates built on them.

A diagram is a lattice plus an exact rational x coordinate per element;
the y coordinate is always the element's height.  Planarity is never
decided abstractly: it is established by exhibiting an embedding that
passes `validate_diagram`, whose crossing tests use exact arithmetic.

Crossings, duplicate positions and boundary turns are decided on integers:
each x is multiplied by D, the lcm of the x denominators (`_scaled_points`).
Scaling x by a positive constant multiplies every orientation determinant
by D and keeps the order of x values, so every sign, collinearity,
betweenness and lexicographic comparison, and hence every answer, is the
same as on the rational points.  `Diagram` keeps its `Fraction` coordinates
for documents and equality.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import lcm

from .core import Lattice
from .errors import MissingAnchor, NotRectangular, SizeBoundExceeded


class Diagram:
    """A lattice together with an exact planar drawing."""

    def __init__(self, lattice, xcoord):
        xcoord = tuple(x if type(x) is Fraction else Fraction(x) for x in xcoord)
        if len(xcoord) != lattice.n:
            raise ValueError("one x coordinate per element required")
        self.lattice = lattice
        self.xcoord = xcoord

    @property
    def ycoord(self):
        return self.lattice.height

    def point(self, v):
        return (self.xcoord[v], self.lattice.height[v])

    @cached_property
    def boundary(self):
        return _compute_boundaries(self)

    def __eq__(self, other):
        return (isinstance(other, Diagram)
                and self.lattice == other.lattice and self.xcoord == other.xcoord)

    __hash__ = None

    def __repr__(self):
        return f"Diagram({self.lattice!r})"


@dataclass(frozen=True)
class DiagramViolation:
    kind: str          # duplicate_position | non_monotone_edge | edge_crossing
    detail: str
    edges: tuple = ()


@dataclass(frozen=True)
class BoundaryData:
    left_chain: tuple
    right_chain: tuple
    left_corners: tuple
    right_corners: tuple
    u_l: object
    u_r: object


@dataclass(frozen=True)
class EyeRecord:
    """Replay record for one removed eye, anchored by element labels."""
    lower: object
    upper: object
    slot: int
    label: object


# -- exact segment geometry ----------------------------------------------

def _scaled_points(diag):
    """Each element's point as (x·D, height), D the lcm of the x denominators."""
    xs = diag.xcoord
    d = lcm(*(x.denominator for x in xs))
    return [(x.numerator * (d // x.denominator), h)
            for x, h in zip(xs, diag.lattice.height)]


def _orient(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_conflict(p1, q1, p2, q2):
    """True when the closed segments share a point that is not an endpoint
    of both (proper crossings, interior touches, collinear overlaps)."""
    o1 = _orient(p1, q1, p2)
    o2 = _orient(p1, q1, q2)
    o3 = _orient(p2, q2, p1)
    o4 = _orient(p2, q2, q1)
    if o1 == 0 and o2 == 0:
        # collinear: lexicographic order equals the order along the line
        lo1, hi1 = sorted((p1, q1))
        lo2, hi2 = sorted((p2, q2))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        return lo < hi  # overlap of positive length; a single touch point
        # is necessarily an endpoint of both segments
    if o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0)
    # touch cases: an endpoint of one segment in the interior of the other
    for o, pt, lo, hi in ((o1, p2, p1, q1), (o2, q2, p1, q1),
                          (o3, p1, p2, q2), (o4, q1, p2, q2)):
        if o == 0 and min(lo, hi) < pt < max(lo, hi):
            return True
    return False


def validate_diagram(diag):
    """Check the drawing invariants; None when valid, else the first violation."""
    lat = diag.lattice
    points = _scaled_points(diag)
    seen = {}
    for v, pt in enumerate(points):
        if pt in seen:
            return DiagramViolation(
                "duplicate_position",
                f"{lat.names[seen[pt]]!r} and {lat.names[v]!r} share {diag.point(v)}")
        seen[pt] = v
    for a, b in lat.covers:
        if lat.height[b] <= lat.height[a]:
            return DiagramViolation(
                "non_monotone_edge",
                f"edge ({lat.names[a]!r}, {lat.names[b]!r}) does not rise")
    # edges with disjoint height ranges cannot conflict: sweep a y-window
    edges = sorted(lat.covers, key=lambda e: (lat.height[e[0]], e))
    for i, (a, b) in enumerate(edges):
        pa, pb = points[a], points[b]
        top = lat.height[b]
        for c, d in edges[i + 1:]:
            if lat.height[c] > top:
                break
            if _segments_conflict(pa, pb, points[c], points[d]):
                return DiagramViolation(
                    "edge_crossing",
                    f"edges ({lat.names[a]!r}, {lat.names[b]!r}) and "
                    f"({lat.names[c]!r}, {lat.names[d]!r}) intersect",
                    edges=((a, b), (c, d)))
    return None


# -- boundaries and corner predicates ------------------------------------

def _next_on_boundary(lat, points, v, side):
    """The angularly leftmost (or rightmost) upper cover of v."""
    best = None
    for w in lat.upper_covers[v]:
        if best is None:
            best = w
            continue
        cross = _orient(points[v], points[best], points[w])
        if cross > 0 if side == "left" else cross < 0:
            best = w
    return best


def _compute_boundaries(diag):
    lat = diag.lattice
    points = _scaled_points(diag)

    def walk(side):
        chain = [lat.bottom]
        while chain[-1] != lat.top:
            chain.append(_next_on_boundary(lat, points, chain[-1], side))
        return tuple(chain)

    return _boundary_data(lat, walk("left"), walk("right"))


def _boundary_data(lat, left, right):
    """Boundary data of the given chains; weak corners counted from covers."""

    def corners(chain):
        out = []
        for v in chain:
            if v in (lat.bottom, lat.top):
                continue
            if len(lat.upper_covers[v]) == 1 and len(lat.lower_covers[v]) == 1:
                out.append(v)
        return tuple(out)

    lc, rc = corners(left), corners(right)
    return BoundaryData(left, right, lc, rc,
                        lc[0] if len(lc) == 1 else None,
                        rc[0] if len(rc) == 1 else None)


def _outer_extension(diag, lattice, site):
    """Draw `lattice`, which is diag's lattice plus a last element t with
    a ≺ t ≺ c for the boundary site (a, b, c, side), with t one unit
    outside the drawing on that side, and carry the boundary over.

    t is one level above a and strictly outside every other element, so
    that side's walk turns from a to t and then to c, t's only upper
    cover; the other walk still leaves a by b.  So t replaces b and all
    else stays; only the corners are recounted.
    """
    a, b, c, side = site
    t = diag.lattice.n
    left, right = diag.boundary.left_chain, diag.boundary.right_chain
    if side == "left":
        x = min(diag.xcoord) - 1
        left = tuple(t if v == b else v for v in left)
    else:
        x = max(diag.xcoord) + 1
        right = tuple(t if v == b else v for v in right)
    after = Diagram(lattice, diag.xcoord + (x,))
    after.boundary = _boundary_data(lattice, left, right)
    return after


def boundaries(diag):
    """Boundary chains, weak corners and the distinguished corners u_l, u_r."""
    return diag.boundary


def is_rectangular(diag):
    """Exactly one weak corner per side, and the two are complementary."""
    lat = diag.lattice
    if lat.n <= 1:
        return False
    b = diag.boundary
    if len(b.left_corners) != 1 or len(b.right_corners) != 1:
        return False
    return (lat.join[b.u_l][b.u_r] == lat.top
            and lat.meet[b.u_l][b.u_r] == lat.bottom)


def is_patch(diag):
    """Rectangular with both corners dual atoms; the 2-element chain counts."""
    lat = diag.lattice
    if lat.n == 2:
        return True
    if not is_rectangular(diag):
        return False
    b = diag.boundary
    return lat.is_cover(b.u_l, lat.top) and lat.is_cover(b.u_r, lat.top)


def is_slim(diag):
    """No cover-preserving diamond: no interval has three or more middles."""
    lat = diag.lattice
    for o in range(lat.n):
        ups = lat.upper_covers[o]
        if len(ups) < 3:
            continue
        shared = {}
        for z in ups:
            for i in lat.upper_covers[z]:
                shared[i] = shared.get(i, 0) + 1
                if shared[i] >= 3:
                    return False
    return True


def upper_left_boundary(diag):
    """The left boundary from u_l up to the top, inclusive."""
    if not is_rectangular(diag):
        raise NotRectangular("upper left boundary requires a rectangular lattice")
    chain = diag.boundary.left_chain
    return chain[chain.index(diag.boundary.u_l):]


def upper_right_boundary(diag):
    if not is_rectangular(diag):
        raise NotRectangular("upper right boundary requires a rectangular lattice")
    chain = diag.boundary.right_chain
    return chain[chain.index(diag.boundary.u_r):]


def reflect(diag):
    """Mirror the drawing; left and right boundary data swap roles."""
    return Diagram(diag.lattice, tuple(-x for x in diag.xcoord))


# -- eyes: removal and replay ---------------------------------------------

def find_eyes(diag):
    """Interior middles of cover-preserving diamonds, ordered by element id."""
    lat = diag.lattice
    out = []
    for m in range(lat.n):
        if len(lat.lower_covers[m]) != 1 or len(lat.upper_covers[m]) != 1:
            continue
        o = lat.lower_covers[m][0]
        i = lat.upper_covers[m][0]
        atoms = [z for z in lat.upper_covers[o] if lat.leq(z, i)]
        if len(atoms) < 3:
            continue
        atoms.sort(key=lambda z: diag.xcoord[z])
        slot = atoms.index(m)
        if 0 < slot < len(atoms) - 1:
            out.append((m, EyeRecord(lat.names[o], lat.names[i], slot, lat.names[m])))
    return out


def _without_element(diag, v):
    lat = diag.lattice
    keep = [u for u in range(lat.n) if u != v]
    covers = [(lat.names[a], lat.names[b]) for a, b in lat.covers if v not in (a, b)]
    sub = Lattice(covers, elements=[lat.names[u] for u in keep])
    return Diagram(sub, [diag.xcoord[u] for u in keep])


def slim(diag):
    """Remove eyes (smallest id first) until none remain.

    Returns the slim diagram and the replay records in removal order.
    """
    records = []
    cur = diag
    while True:
        eyes = find_eyes(cur)
        if not eyes:
            return cur, records
        m, rec = eyes[0]
        records.append(rec)
        cur = _without_element(cur, m)


def insert_middle(diag, rec):
    """Insert the recorded eye back between its anchors, at its slot.

    The new element lands between two existing middles of [lower, upper];
    the quadrilateral they bound is empty in any valid drawing, so the
    midpoint x keeps the diagram planar.
    """
    lat = diag.lattice
    try:
        lo = lat.id_of(rec.lower)
        hi = lat.id_of(rec.upper)
    except KeyError:
        raise MissingAnchor(f"anchor of {rec.label!r} is gone", record=rec)
    if rec.label in lat.index:
        raise MissingAnchor(f"label {rec.label!r} already in use", record=rec)
    if not lat.lt(lo, hi):
        raise MissingAnchor(
            f"{rec.lower!r} no longer lies below {rec.upper!r}", record=rec)
    mids = [z for z in lat.upper_covers[lo] if lat.is_cover(z, hi)]
    mids.sort(key=lambda z: diag.xcoord[z])
    if len(mids) < 2 or not 1 <= rec.slot <= len(mids) - 1:
        raise MissingAnchor(
            f"[{rec.lower!r}, {rec.upper!r}] is not an interval that can "
            f"host {rec.label!r} at slot {rec.slot}", record=rec)
    x = (diag.xcoord[mids[rec.slot - 1]] + diag.xcoord[mids[rec.slot]]) / 2
    covers = [(lat.names[a], lat.names[b]) for a, b in lat.covers]
    covers += [(rec.lower, rec.label), (rec.label, rec.upper)]
    new = Lattice(covers, elements=list(lat.names) + [rec.label])
    return Diagram(new, list(diag.xcoord) + [x])


def restore_eyes(diag, records):
    """Replay removed eyes in reverse removal order."""
    cur = diag
    for rec in reversed(records):
        cur = insert_middle(cur, rec)
    return cur


# -- embeddings for abstract lattices ------------------------------------

def synthesize_embedding(lat, max_size=16):
    """Search per-level left-to-right orders for a valid drawing.

    Exhaustive and deterministic; returns the first diagram found or None.
    Inputs beyond `max_size` elements are refused.  Slot i of a level of
    `width` elements is x = (2i - (width - 1)) / 2; candidates are tested
    on the doubled, integer x.
    """
    if lat.n > max_size:
        raise SizeBoundExceeded(
            f"{lat.n} elements exceeds the synthesis bound {max_size}")
    by_level = {}
    for v in range(lat.n):
        by_level.setdefault(lat.height[v], []).append(v)
    levels = [sorted(by_level[h]) for h in sorted(by_level)]
    xs = {}
    done_edges = []

    def level_edges(members):
        placed = set(xs)
        return [(a, b) for a, b in lat.covers if b in members and a in placed]

    def place(li):
        if li == len(levels):
            return True
        members = levels[li]
        width = len(members)
        for perm in permutations(members):
            for i, v in enumerate(perm):
                xs[v] = 2 * i - (width - 1)
            new = level_edges(set(members))
            pts = {v: (xs[v], lat.height[v]) for v in xs}
            ok = True
            for k, (a, b) in enumerate(new):
                for c, d in done_edges + new[:k]:
                    if _segments_conflict(pts[a], pts[b], pts[c], pts[d]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                done_edges.extend(new)
                if place(li + 1):
                    return True
                del done_edges[len(done_edges) - len(new):]
            for v in members:
                xs.pop(v, None)
        return False

    if not place(0):
        return None
    return Diagram(lat, [Fraction(xs[v], 2) for v in range(lat.n)])


def subdiagram(diag, members):
    """Induced diagram on `members`; the subset must inherit ambient covers."""
    lat = diag.lattice
    members = sorted(members)
    sub = lat.restrict(members)
    ambient = {(lat.names[a], lat.names[b]) for a, b in lat.covers}
    for a, b in sub.covers:
        if (sub.names[a], sub.names[b]) not in ambient:
            raise ValueError("subset does not inherit the ambient covers")
    return Diagram(sub, [diag.xcoord[v] for v in members])
