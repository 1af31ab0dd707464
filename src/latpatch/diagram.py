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
for documents and equality; a grown diagram (`_GrowingDiagram`) keeps no
points, and a gluing on it scales each drawing it checks.
"""

from bisect import bisect_right, insort
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import lcm

from .core import _first_unused, _Growing, iter_bits
from .errors import EmbeddingFailed, MissingAnchor, NotRectangular, SizeBoundExceeded


class Diagram:
    """A lattice together with an exact planar drawing."""

    def __init__(self, lattice, xcoord):
        """`xcoord` gives one x per element.  A tuple of `Fraction`s is kept
        as it is, after one type test; anything else becomes a tuple of
        `Fraction`s, each coordinate that is not exactly a `Fraction`
        (an int, bool, float or `Fraction` subclass) converted."""
        xcoord = tuple(xcoord)
        if not {Fraction}.issuperset(map(type, xcoord)):
            xcoord = tuple([x if type(x) is Fraction else Fraction(x) for x in xcoord])
        if len(xcoord) != lattice.n:
            raise ValueError("one x coordinate per element required")
        self.lattice = lattice
        self.xcoord = xcoord

    def point(self, v):
        return (self.xcoord[v], self.lattice.height[v])

    @cached_property
    def boundary(self):
        """Boundary chains, weak corners and the distinguished corners u_l, u_r.

        Walked on this drawing's scaled points when first read, unless a
        caller has set it: a tree node's walk on its members' points in its
        root (`pipeline._decompose`), or the chains of a grown diagram,
        drawn hulls included (`_GrowingDiagram.diagram`)."""
        return _walk(self.lattice, _scaled_points(self.xcoord, self.lattice.height))

    def __eq__(self, other):
        return (isinstance(other, Diagram)
                and self.lattice == other.lattice and self.xcoord == other.xcoord)

    __hash__ = None

    def __repr__(self):
        return f"Diagram({self.lattice!r})"


@dataclass(frozen=True)
class DiagramViolation:
    kind: str          # duplicate_position | edge_crossing
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

def _scaled_points(xs, heights):
    """Each element's point as (x·D, height), D the lcm of the denominators
    of the `Fraction`s `xs`: the one rule that scales a drawing."""
    d = lcm(*(x.denominator for x in xs))
    return [(x.numerator * (d // x.denominator), h) for x, h in zip(xs, heights)]


def _orient(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_conflict(p1, q1, p2, q2):
    """True when the closed segments share a point that is not an endpoint
    of both (proper crossings, interior touches, collinear overlaps).

    Segments with a shared end o (p1 == p2 or q1 == q2) and other ends u
    and v meet elsewhere exactly when u and v lie on one ray from o:
    orient(o, u, v) = 0 and (u - o)·(v - o) > 0.  The general rule below
    agrees.  If orient(o, u, v) ≠ 0, only the two orientations of o against
    the other segment are 0, and o, an end of both, lies strictly inside
    neither.  If it is 0, all four are, and the overlap has positive length
    exactly when u and v lie on one side of o, where the dot product is
    positive; on opposite sides, or when a segment is the point o, the
    overlap is o alone.
    """
    if p1 == p2 or q1 == q2:
        o, u, v = (p1, q1, q2) if p1 == p2 else (q1, p1, p2)
        return (_orient(o, u, v) == 0
                and (u[0] - o[0]) * (v[0] - o[0]) + (u[1] - o[1]) * (v[1] - o[1]) > 0)
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
    found = _conflict(lat.covers, lat.height, _scaled_points(diag.xcoord, lat.height))
    if found is None:
        return None
    kind, (p, q) = found
    names = lat.names
    if kind == "duplicate_position":
        return DiagramViolation(kind, f"{names[p]!r} and {names[q]!r} share {diag.point(q)}")
    (a, b), (c, d) = p, q
    return DiagramViolation(
        kind, f"edges ({names[a]!r}, {names[b]!r}) and ({names[c]!r}, {names[d]!r}) intersect",
        edges=(p, q))


def _conflict(covers, height, points):
    """The first violation of a drawing given by its cover pairs, heights
    and points, by ids: ("duplicate_position", (v, w)), v drawn first at
    w's point, or ("edge_crossing", (e, f)) for two conflicting edges; None
    when there is none.  `validate_diagram` reads it on a lattice, and a
    gluing on its grower's lists (`_GrowingDiagram.glue`)."""
    seen = {}
    for v, pt in enumerate(points):
        if pt in seen:
            return "duplicate_position", (seen[pt], v)
        seen[pt] = v
    # every edge rises, since y is the height and `core._closure` puts each
    # element above its lower covers.  Edges with disjoint height ranges
    # cannot conflict: sweep the edges by their lower end's height, and stop
    # for (a, b) at the first edge starting at b's height `top`.  Such an
    # edge meets y = top only at its lower end, and (a, b) only at b; the
    # positions are distinct, so the two can meet only at b, an endpoint of
    # both, which is no conflict.  The window is walked by index, with no
    # copy of the rest of the sweep.  Inside it, edges whose closed x
    # ranges are disjoint cannot meet either
    sweep = []
    for h, a, b in sorted([(height[a], a, b) for a, b in covers]):
        xa, xb = points[a][0], points[b][0]
        sweep.append((h, min(xa, xb), max(xa, xb), a, b))
    for i, (_, lo, hi, a, b) in enumerate(sweep):
        pa, pb = points[a], points[b]
        top = height[b]
        for j in range(i + 1, len(sweep)):
            h, c_lo, c_hi, c, d = sweep[j]
            if h >= top:
                break
            if c_lo > hi or c_hi < lo:
                continue
            if _segments_conflict(pa, pb, points[c], points[d]):
                return "edge_crossing", ((a, b), (c, d))
    return None


# -- boundaries and corner predicates ------------------------------------
#
# The walk reads only the signs of orientations, so it may run on any
# points that differ from the drawing's by a positive scale and a
# translation.  The ambient heights, which in a graded lattice (every
# semimodular one) differ from an interval's own by a constant, are such a
# translation; so a tree node, a lattice of its own, walks on its members'
# integer points in its root (`pipeline._decompose`), with no scaling of
# its own.  The corner count, the complementarity test and the slim test
# also work on an interval [y, x] of a lattice, given by its ends or by
# its mask ↑y ∩ ↓x: the parts of a cut are checked on their ambient's
# masks and covers alone, in ambient ids, without being built or walked
# (`_interval_rectangular`, `_slim`).

def _next_on_boundary(lat, points, v, side):
    """The angularly leftmost (or rightmost) upper cover of v."""
    ups = lat.upper_covers[v]
    if len(ups) == 1:
        return ups[0]
    best = ups[0]
    for w in ups[1:]:
        cross = _orient(points[v], points[best], points[w])
        if cross > 0 if side == "left" else cross < 0:
            best = w
    return best


def _climb(lat, points, chain, side):
    """`chain`, a list that a walk on `side` of a lattice drawn at `points`
    has gone up so far, extended in place up to the top."""
    top = lat.top
    while chain[-1] != top:
        chain.append(_next_on_boundary(lat, points, chain[-1], side))
    return chain


def _walk(lat, points):
    """Boundary data of a lattice drawn at `points`."""
    bottom = lat.bottom
    return _boundary_data(lat, tuple(_climb(lat, points, [bottom], "left")),
                          tuple(_climb(lat, points, [bottom], "right")))


def _boundary_data(lat, left, right):
    """Boundary data of the chains `left` and `right` from the bottom to the
    top of a lattice: the weak corners are the inner chain elements with
    one upper and one lower cover."""
    upper, lower = lat.upper_covers, lat.lower_covers

    def corners(chain):
        return tuple([v for v in chain[1:-1] if len(upper[v]) == 1 == len(lower[v])])

    lc, rc = corners(left), corners(right)
    return BoundaryData(left, right, lc, rc,
                        lc[0] if len(lc) == 1 else None,
                        rc[0] if len(rc) == 1 else None)


def _rectangular(lat, u, v, y, x):
    """u ∨ v = x and u ∧ v = y in the interval [y, x], read off the masks
    of a lattice, for its weak corners u and v (None where a side has not
    exactly one)."""
    return (u is not None and v is not None
            and lat.up[u] & lat.up[v] & lat.down[x] == 1 << x
            and lat.down[u] & lat.down[v] & lat.up[y] == 1 << y)


def _interval_rectangular(lat, y, x):
    """`is_rectangular` of the interval [y, x] of a slim planar semimodular
    lattice, read off its masks and covers, with no drawing: exactly two of
    its elements have one upper and one lower cover inside it (are doubly
    irreducible in it), and the two are complementary in it.

    This equals the walked test (one weak corner per side, complementary)
    in any planar drawing.  [y, x] is a slim semimodular lattice, drawn
    planarly by the drawing's restriction, and its weak corners are the
    inner elements of its two boundary chains that are doubly irreducible
    in it.  Every join-irreducible element of a slim semimodular lattice
    lies on one of its boundary chains (Czédli–Schmidt), so its doubly
    irreducible elements are exactly the weak corners W_l ∪ W_r.  If the
    walked test holds, W_l = {u_l} and W_r = {u_r} with u_l, u_r
    complementary, hence distinct: two elements, complementary.
    Conversely, let those be p and q, complementary.  Two elements of one
    chain are comparable, and comparable complements are y and x, which
    are no inner elements; so p and q lie on no common chain.  Then
    neither W_l nor W_r holds both, and neither is empty (the other would
    hold both), so each holds exactly one of them: one weak corner per
    side, and the two are complementary.
    """
    mask = lat.up[y] & lat.down[x]
    upper, lower = lat.upper_covers, lat.lower_covers
    # an inner element has an upper and a lower cover inside, so one cover
    # in all is one inside; when x is the top (y the bottom), every upper
    # (lower) cover is inside
    ups_inside, downs_inside = x == lat.top, y == lat.bottom
    found = []
    for v in iter_bits(mask & ~(1 << y | 1 << x)):
        ups, downs = upper[v], lower[v]
        if (ups_inside and len(ups) > 1) or (downs_inside and len(downs) > 1):
            continue
        if ((len(ups) > 1 and sum([mask >> w & 1 for w in ups]) > 1)
                or (len(downs) > 1 and sum([mask >> w & 1 for w in downs]) > 1)):
            continue
        found.append(v)
        if len(found) > 2:
            return False
    return len(found) == 2 and _rectangular(lat, *found, y, x)


def is_rectangular(diag):
    """Exactly one weak corner per side, and the two are complementary."""
    lat, b = diag.lattice, diag.boundary
    return _rectangular(lat, b.u_l, b.u_r, lat.bottom, lat.top)


def _patch(lat, b):
    """Rectangular with both corners dual atoms, read off the masks and
    covers of a lattice with more than two elements and its boundary data."""
    top = lat.top
    return (_rectangular(lat, b.u_l, b.u_r, lat.bottom, top)
            and top in lat.upper_covers[b.u_l] and top in lat.upper_covers[b.u_r])


def is_patch(diag):
    """Rectangular with both corners dual atoms; the 2-element chain counts."""
    return diag.lattice.n == 2 or _patch(diag.lattice, diag.boundary)


def _middles(lat, o, mask):
    """For each i two cover steps above o, the middles of [o, i] that `mask`
    holds: the upper covers of o that i covers, in o's cover-list order."""
    upper = lat.upper_covers
    out = {}
    for z in upper[o]:
        if mask >> z & 1:
            for i in upper[z]:
                out.setdefault(i, []).append(z)
    return out


def _slim(lat, mask):
    """`is_slim` of the interval that `mask` holds: no three upper covers
    of one element inside it share an upper cover.  Two upper covers of o
    inside the interval meet in o and join in any upper cover they share,
    so o and that cover lie inside too: only the covers need the mask."""
    return not any(len(zs) >= 3 for o, ups in enumerate(lat.upper_covers)
                   if len(ups) >= 3 for zs in _middles(lat, o, mask).values())


def is_slim(diag):
    """No cover-preserving diamond: no interval has three or more middles."""
    return _slim(diag.lattice, diag.lattice.full_mask)


def upper_left_boundary(diag):
    """The left boundary from u_l up to the top, inclusive."""
    if not is_rectangular(diag):
        raise NotRectangular("upper left boundary requires a rectangular lattice")
    chain = diag.boundary.left_chain
    return chain[chain.index(diag.boundary.u_l):]


def reflect(diag):
    """Mirror the drawing; left and right boundary data swap roles."""
    return Diagram(diag.lattice, tuple(-x for x in diag.xcoord))


# -- eyes: removal and replay ---------------------------------------------

def find_eyes(diag):
    """Interior middles of cover-preserving diamonds, ordered by element id.
    The atoms of each interval [o, i] are sorted by x once.

    An eye m of [o, i] has atoms of [o, i] on both sides, and they and m
    are upper covers of o: a doubly irreducible m whose lower cover has
    fewer than three upper covers is no eye, and is skipped."""
    lat = diag.lattice
    slots = {}  # (o, i) -> {atom of [o, i]: its slot in x order}
    out = []
    upper, lower = lat.upper_covers, lat.lower_covers
    for m in range(lat.n):
        if len(lower[m]) != 1 or len(upper[m]) != 1 or len(upper[lower[m][0]]) < 3:
            continue
        (o,), (i,) = lower[m], upper[m]
        if (o, i) not in slots:
            atoms = sorted((z for z in upper[o] if lat.leq(z, i)),
                           key=diag.xcoord.__getitem__)
            slots[o, i] = {z: k for k, z in enumerate(atoms)}
        slot_of = slots[o, i]
        slot = slot_of[m]
        if 0 < slot < len(slot_of) - 1:
            out.append((m, EyeRecord(lat.names[o], lat.names[i], slot, lat.names[m])))
    return out


def slim(diag):
    """Remove every eye, smallest id first, in one derived build.

    Returns the slim diagram and the replay records in removal order.

    Removing an eye changes no other element's covers (see
    `Lattice._derived`), and the two outer atoms of an interval [o, i]
    (upper covers of o below i) are eyes of no interval: an eye of
    [o, i'] ⊆ [o, i] has atoms of [o, i'] on both sides.  So removing the
    first eye of each round's scan drops exactly the eyes of the first
    scan, in id order.  An eye m of [o, i] is recorded at its first-scan
    slot less the atoms of [o, i] removed before it that sort before it:
    the eyes with x at most m's of the intervals [o, i'] with i' ≤ i,
    counted per interval (in a graded lattice, such as a semimodular one,
    only [o, i] itself).
    """
    eyes = find_eyes(diag)
    if not eyes:
        return diag, []
    lat, xs = diag.lattice, diag.xcoord
    removed = {}  # o -> i -> the sorted x of the removed eyes of [o, i]
    records = []
    for m, rec in eyes:
        (o,), (i,) = lat.lower_covers[m], lat.upper_covers[m]
        by_upper = removed.setdefault(o, {})
        before = sum(bisect_right(done, xs[m]) for top, done in by_upper.items()
                     if lat.down[i] >> top & 1)
        records.append(replace(rec, slot=rec.slot - before))
        insort(by_upper.setdefault(i, []), xs[m])
    gone = {m for m, _ in eyes}
    kept = [v for v in range(lat.n) if v not in gone]
    return (Diagram(lat._derived(kept, lat.bottom, lat.top), [xs[v] for v in kept]),
            records)


def _fresh(label, taken):
    while label in taken:
        label = f"{label}'"
    return label


class _GrowingDiagram(_Growing):
    """A diagram grown in place: a `core._Growing` with, beside it, the
    labels and their index, the x coordinates and the two boundary chains.

    The random generator keeps one for all of its moves, and `restore_eyes`,
    `ops.one_step_extension`, `ops.glue_over_chain` and every drawn hull
    (`ops._drawn_hull`) make their moves on a fresh one of their input: an
    eye (`add_eye`), an element beside the boundary (`extend`) and a gluing
    over a chain (`glue`); no other module writes a grower's fields.  A new
    element only appends its x, and a gluing scales each drawing it checks
    (`_scaled_points`).  `lo` and `hi` are the least and the greatest x,
    and `next_t` is where the search for `extend`'s next label starts.
    `diagram()` freezes the result once, unchecked, carrying the boundary
    data of the chains.
    """

    def __init__(self, diag):
        super().__init__(diag.lattice)
        self.names = list(diag.lattice.names)
        self.index = dict(diag.lattice.index)
        b = diag.boundary
        self.chains = [list(b.left_chain), list(b.right_chain)]
        self.xcoord = list(diag.xcoord)
        self.lo, self.hi = min(self.xcoord), max(self.xcoord)
        self.next_t = 1

    def add_drawn(self, a, c, label, x):
        """Add a new element t with a ≺ t ≺ c only, labelled `label` and
        drawn at x; t's id."""
        t = self.add(a, c)
        self.names.append(label)
        self.index[label] = t
        self.xcoord.append(x)
        return t

    def extend(self, side, i):
        """The one-step extension at the site a ≺ b ≺ c at positions i,
        i + 1 and i + 2 of the chain on `side`, in place: a new t with
        a ≺ t ≺ c only, labelled with the first unused t1, t2, … and drawn
        one unit outside every other x on `side`, in place of b on that
        chain.  Returns the labels of a, b and c, `side` and t's label, an
        `ExtensionStep`'s fields.

        The label search starts at the last t<k> taken: t1, …, t(k−1) stay
        in use, since no move takes a label back (a gluing that fails
        takes back only labels it added, which were unused before).
        a ≺ b ≺ c lie on a maximal chain, so a < c is not a cover and the
        lattice grows without checks.  t lies one level above a and
        strictly outside every other element, so its edges hug the
        boundary and the drawing stays planar; that side's walk turns from
        a to t and then to c, t's only upper cover, and the other walk
        still leaves a by b.  So t replaces b in that chain and all else
        stays."""
        chain = self.chains[side == "right"]
        a, b, c = chain[i:i + 3]
        label, self.next_t = _first_unused("t", self.index, self.next_t)
        if side == "right":
            x = self.hi = self.hi + 1
        else:
            x = self.lo = self.lo - 1
        chain[i + 1] = self.add_drawn(a, c, label, x)
        names = self.names
        return names[a], names[b], names[c], side, label

    def add_eye(self, rec, mids):
        """Put back the eye `rec` at its slot between two middles of
        [lower, upper] in x order; the quadrilateral they bound is empty in
        any valid drawing, so the midpoint x keeps the diagram planar.

        An eye is a middle of its own interval only, so `mids` keeps each
        interval's middles, once sorted by (x, id) as a stable sort by x of
        the ascending ids does, and each eye is inserted in place.  Anchors
        that are not comparable have no middles, so "no longer lies below"
        is decided only when the host check fails.  Eyes are interior, and
        lower and upper already have two covers each, so no boundary chain
        and no weak corner changes."""
        index, xs = self.index, self.xcoord
        lo, hi = index.get(rec.lower), index.get(rec.upper)
        if lo is None or hi is None:
            raise MissingAnchor(f"anchor of {rec.label!r} is gone", record=rec)
        if rec.label in index:
            raise MissingAnchor(f"label {rec.label!r} already in use", record=rec)
        row = mids.get((lo, hi))
        if row is None:  # the mask -1 holds every id
            row = mids[lo, hi] = sorted((xs[z], z) for z in _middles(self, lo, -1).get(hi, ()))
        if len(row) < 2 or not 1 <= rec.slot <= len(row) - 1:
            if not self.lattice(self.names).lt(lo, hi):
                raise MissingAnchor(
                    f"{rec.lower!r} no longer lies below {rec.upper!r}", record=rec)
            raise MissingAnchor(
                f"[{rec.lower!r}, {rec.upper!r}] is not an interval that can "
                f"host {rec.label!r} at slot {rec.slot}", record=rec)
        x = (row[rec.slot - 1][0] + row[rec.slot][0]) / 2
        insort(row, (x, self.add_drawn(lo, hi, rec.label, x)))  # lo < hi, not a cover

    def glue(self, upper, pairs, max_synth=16):
        """Glue the diagram `upper` on top of this grown diagram, in place:
        `pairs` are (d, i), d running up a filter chain ↑b of this lattice
        and i up an ideal chain of `upper`'s lattice, pairwise.  The elements
        of `upper` outside its chain are appended in id order, each with the
        first label its own one gets by adding primes that no element has yet.
        Coordinates are reused when they still draw planarly (they do whenever
        the pieces come from a recorded cut), otherwise an embedding is
        synthesized; then the boundary is walked again, on the scaled points
        of the drawing that passed.  Raises `EmbeddingFailed`, leaving the
        grower as it was, when no drawing is found.

        The gluing K of a lattice L and a lattice U over a filter chain C = ↑b
        of L and an ideal chain ↓c of U, identified with C in order, is a
        lattice whose covers are those of L and of U, and whose bottom is L's
        and top is U's.  Its order: x ≤ y when x ≤ y in L or in U, or x ∈ L,
        y ∈ U − C and x ≤ e ≤ y for some e ∈ C.  Nothing in L lies above an
        element of U − C, and nothing in U − C below one of C, since C is an
        ideal of U.  Joins: for x, y ∈ U, every upper bound lies in U (C is a
        filter of L), so x ∨ y is their join in U.  For x, y ∈ L, an upper
        bound u ∈ U − C lies above some e, e' ∈ C with x ≤ e and y ≤ e', and
        the larger of e, e' lies above x ∨ y in L; so x ∨ y in L is the join.
        For x ∈ L − C and y ∈ U − C, the upper bounds of x in U are ↑e for
        e = x ∨ b in L, the least element of C above x; so x ∨ y = e ∨ y in U.
        A finite poset with a bottom in which every pair has a join is a
        lattice.  Covers: a cover of L or of U is one of K, since an element
        between its ends would lie between them in its own piece (for x, y ∈ C
        and z ∈ L − C, x < z < y puts z ≥ b, in C); and x < y with x ∈ L − C
        and y ∈ U − C has some e ∈ C strictly between.  So only chain
        elements gain covers, upper covers outside C, and no old element
        changes its height, since its down-set stays in L.  A new element's
        height is one more than the greatest of its lower covers', taken in
        U's height order; when L is graded, as every semimodular lattice is,
        that is h(b) plus its height in U.
        """
        ub, n = upper.lattice, len(self.height)
        new = {i: d for d, i in pairs}  # ids of `upper` -> ids of the gluing
        added = [v for v in range(ub.n) if v not in new]
        new.update(zip(added, range(n, n + len(added))))
        lengths = [len(self.upper_covers[d]) for d, _ in pairs]
        for v in added:
            label = _fresh(ub.names[v], self.index)
            self.index[label] = new[v]
            self.names.append(label)
            self.upper_covers.append([new[w] for w in ub.upper_covers[v]])
            self.lower_covers.append(sorted([new[w] for w in ub.lower_covers[v]]))
        for d, i in pairs:  # new ids are the largest, so the lists stay sorted
            self.upper_covers[d] += [new[w] for w in ub.upper_covers[i] if new[w] >= n]
        height, lower, xcoord = self.height, self.lower_covers, self.xcoord
        height += [0] * len(added)
        for v in sorted(added, key=ub.height.__getitem__):
            height[new[v]] = max([height[w] for w in lower[new[v]]]) + 1
        top, self.top = self.top, new[ub.top]

        # each shift is computed only once the one before it fails, since the
        # first or second nearly always draws
        xs = [upper.xcoord[v] for v in added]
        lo, hi = self.lo, self.hi

        def shifts():
            yield Fraction(0)
            yield xcoord[pairs[0][0]] - upper.xcoord[pairs[0][1]]
            yield hi + 1 - min(upper.xcoord)
            yield lo - 1 - max(upper.xcoord)

        covers = [(v, w) for v, ws in enumerate(self.upper_covers) for w in ws]
        found = None
        for shift in shifts():
            xcoord[n:] = [x + shift for x in xs] if shift else xs
            points = _scaled_points(xcoord, height)
            if _conflict(covers, height, points) is None:
                self.lo, self.hi = min([lo, *xcoord[n:]]), max([hi, *xcoord[n:]])
                break
        else:
            if len(height) <= max_synth:
                found = synthesize_embedding(self.lattice(self.names), max_size=max_synth)
            if found is None:
                for (d, _), k in zip(pairs, lengths):
                    del self.upper_covers[d][k:]
                for label in self.names[n:]:
                    del self.index[label]
                for seq in (self.names, self.upper_covers, lower, height, xcoord):
                    del seq[n:]
                self.top = top
                raise EmbeddingFailed(
                    f"no planar drawing found for the {n + len(added)}-element gluing")
            xcoord[:] = found.xcoord
            points = _scaled_points(xcoord, height)
            self.lo, self.hi = min(xcoord), max(xcoord)
        # each old chain ends at the old top, in ↑b.  Below the first element of
        # ↑b that it reaches, a walk meets only old elements outside ↑b, whose
        # covers and x stay (a new scale turns no walk), so it goes as before,
        # and it goes on from there; a synthesized drawing is walked whole
        if found is None:
            glued = {d for d, _ in pairs}
            starts = [chain[:next(i for i, v in enumerate(chain) if v in glued) + 1]
                      for chain in self.chains]
        else:
            starts = [[self.bottom], [self.bottom]]
        self.chains = [_climb(self, points, chain, side)
                       for chain, side in zip(starts, ("left", "right"))]

    def diagram(self):
        lat = self.lattice(self.names)
        out = Diagram(lat, self.xcoord)
        out.boundary = _boundary_data(lat, *map(tuple, self.chains))
        return out


def restore_eyes(diag, records):
    """Replay removed eyes in reverse removal order into one grown diagram
    (`_GrowingDiagram.add_eye`), frozen once, at the end."""
    if not records:
        return diag
    grown, mids = _GrowingDiagram(diag), {}  # (lo, hi) -> middles as sorted (x, id)
    for rec in reversed(records):
        grown.add_eye(rec, mids)
    return grown.diagram()


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
    for a, b in sub.covers:
        if not lat.is_cover(members[a], members[b]):
            raise ValueError("subset does not inherit the ambient covers")
    return Diagram(sub, [diag.xcoord[v] for v in members])
