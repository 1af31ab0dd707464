"""Finite bounded lattices built from their cover relations.

Elements are integer ids 0..n-1; external labels are kept in `names` and
only matter for IO and for re-anchoring replay records.  Order data is
stored as per-element bitmasks so that comparisons, bound scans and subset
role checks are plain integer operations.
"""

from dataclasses import dataclass

from .errors import CycleDetected, EmptySet, NotALattice, NotBounded, NotComparable


def iter_bits(mask):
    """The positions of the set bits of `mask`, as an ascending list."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def _closure(upper, lower, order):
    """↑ and ↓ masks and heights (longest cover chain from below) of every
    element, from the upper and lower cover lists and `order`, any linear
    extension of the order they generate.  The only place they are built."""
    n = len(upper)
    up = [0] * n
    for v in reversed(order):
        m = 1 << v
        for w in upper[v]:
            m |= up[w]
        up[v] = m
    down = [0] * n
    height = [0] * n
    for v in order:
        m = 1 << v
        h = 0
        for w in lower[v]:
            m |= down[w]
            if height[w] >= h:
                h = height[w] + 1
        down[v] = m
        height[v] = h
    return tuple(up), tuple(down), tuple(height)


def _check_joins(up, down, names):
    """Raise unless every pair has a join.

    In a lattice the common upper bounds of (a, b) are exactly ↑(a ∨ b),
    so `up[a] & up[b]` must itself be some element's up-mask, which one
    lookup in the set of up-masks decides.  Comparable pairs always have a
    join, so only the b > a outside ↑a ∪ ↓a are looked up.
    """
    ups = set(up)
    full = (1 << len(up)) - 1
    for a, up_a in enumerate(up):
        rest = full & ~((2 << a) - 1) & ~(up_a | down[a])
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            if up_a & up[b] not in ups:
                raise NotALattice(
                    f"{names[a]!r} and {names[b]!r} have no least upper bound",
                    witness=(names[a], names[b]))
            rest ^= low


def _topo_order(upper, lower, names):
    """A topological order of the cover graph; raises on a cycle."""
    indeg = [len(ws) for ws in lower]
    order = [v for v, d in enumerate(indeg) if d == 0]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w in upper[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != len(names):
        stuck = [names[v] for v, d in enumerate(indeg) if d > 0]
        raise CycleDetected(f"cover relation has a cycle through {stuck[:4]!r}")
    return order


class Lattice:
    """A finite bounded lattice: cover pairs plus derived order masks.

    Construction validates every axiom (acyclicity, unique bounds, the
    input pairs being genuine covers, existence of all joins) and raises a
    diagnostic naming the first violation.  Meets need no scan: in a
    finite poset with a bottom where every pair has a join, every pair
    (a, b) has a meet, the join of its common lower bounds (there is at
    least the bottom), and those common lower bounds are exactly ↓(a ∧ b),
    so `down[a] & down[b]` is always some element's down-mask.  The
    private derived constructors skip what cannot fail for their shape (see
    `restrict`).  `join(a, b)` and `meet(a, b)` read the lowest member of
    `up[a] & up[b]` and the highest of `down[a] & down[b]` by height; no
    table is built.  Instances are immutable after construction and safe
    to share.
    """

    def __init__(self, covers, elements=None):
        covers = list(covers)
        if elements is None:
            first_seen = {}
            for lo, hi in covers:
                first_seen.setdefault(lo, None)
                first_seen.setdefault(hi, None)
            names = list(first_seen)
        else:
            names = list(elements)
        if not names:
            raise NotBounded("a lattice needs at least one element")
        if len(set(names)) != len(names):
            raise ValueError("duplicate element labels")
        index = {lab: i for i, lab in enumerate(names)}
        pairs = set()
        for lo, hi in covers:
            if lo not in index or hi not in index:
                raise NotALattice(f"cover ({lo!r}, {hi!r}) uses an unknown element")
            a, b = index[lo], index[hi]
            if a == b:
                raise CycleDetected(f"self-loop at {lo!r}")
            pairs.add((a, b))
        above = [[] for _ in names]
        below = [[] for _ in names]
        for a, b in sorted(pairs):
            above[a].append(b)
            below[b].append(a)
        upper, lower = tuple(map(tuple, above)), tuple(map(tuple, below))
        order = _topo_order(upper, lower, names)

        minima = [v for v, ws in enumerate(lower) if not ws]
        maxima = [v for v, ws in enumerate(upper) if not ws]
        if len(minima) != 1:
            raise NotBounded(
                f"{len(minima)} minimal elements: {[names[v] for v in minima]!r}")
        if len(maxima) != 1:
            raise NotBounded(
                f"{len(maxima)} maximal elements: {[names[v] for v in maxima]!r}")
        self._fill(tuple(names), upper, lower, order, minima[0], maxima[0])

        for a, b in self.covers:
            between = self.up[a] & self.down[b] & ~((1 << a) | (1 << b))
            if between:
                z = iter_bits(between)[0]
                raise NotALattice(
                    f"({names[a]!r}, {names[b]!r}) is not a cover: "
                    f"{names[z]!r} lies between",
                    witness=(names[a], names[b]))
        _check_joins(self.up, self.down, self.names)

    def _fill(self, names, upper_covers, lower_covers, order, bottom, top, covers=None):
        """Set every field from the labels, the cover lists, which must be
        sorted (so the cover pairs come out sorted), and `order`, a linear
        extension: the label index is read off the labels, and the masks and
        heights come from `_closure`.  `covers`, when given, must be the
        sorted cover pairs the lists hold; `_derived` collects them in the
        loop that builds the lists, which reads faster than a second pass."""
        n = len(names)
        self.names = names
        self.n = n
        self.index = dict(zip(names, range(n)))
        if covers is None:
            covers = tuple([(v, w) for v, ws in enumerate(upper_covers) for w in ws])
        self.covers = covers
        self.upper_covers = upper_covers
        self.lower_covers = lower_covers
        self.up, self.down, self.height = _closure(upper_covers, lower_covers, order)
        self.full_mask = (1 << n) - 1
        self.bottom = bottom
        self.top = top

    @staticmethod
    def _trusted(*fields):
        """A lattice derived from a validated one, by `_fill`; unchecked."""
        new = Lattice.__new__(Lattice)
        new._fill(*fields)
        return new

    # -- order queries ---------------------------------------------------

    def join(self, a, b):
        """a ∨ b: the lowest member of ↑a ∩ ↑b, which is ↑(a ∨ b), so every
        other member lies strictly higher."""
        return min(iter_bits(self.up[a] & self.up[b]), key=self.height.__getitem__)

    def meet(self, a, b):
        """a ∧ b: the highest member of ↓a ∩ ↓b, which is ↓(a ∧ b) (see the
        class docstring)."""
        return max(iter_bits(self.down[a] & self.down[b]), key=self.height.__getitem__)

    def leq(self, a, b):
        return bool(self.down[b] >> a & 1)

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def is_cover(self, a, b):
        return b in self.upper_covers[a]

    def id_of(self, label):
        return self.index[label]

    def labels(self, ids):
        return [self.names[v] for v in sorted(ids)]

    def mask_of(self, ids):
        m = 0
        for v in ids:
            m |= 1 << v
        return m

    def restrict(self, members):
        """Sublattice induced on the given ids, in ascending id order.

        An interval [y, x] of this lattice is derived in one pass over its
        k members (`_derived`): its covers are the covers of this lattice
        inside it, and every join and meet of two members stays inside, so
        nothing can fail.  Each tree node is such an interval of the root
        (`pipeline._decompose`).
        Any other subset gets its covers recomputed and is validated in full.

        Derived lattices, made from one already validated: hulls, one-step
        extensions, eye insertions and gluings over a chain (grown by
        `_Growing`, drawn ones by `diagram._GrowingDiagram`), and, by
        `_derived`, intervals (here, and the children of tree documents
        that match an interval of their parent node, see
        `parse_tree_document`), slimmed lattices (all eyes removed at once)
        and the removal of one added t.  Validated in full: lattice
        documents, the roots of tree documents and any child that does not
        match its parent, every `Lattice(covers)`, the generators' chains,
        grids, diamonds and random lattices (each built once, when done),
        and non-interval subsets.
        """
        members = sorted(members)
        mask = self.mask_of(members)
        if members and len(members) == mask.bit_count():
            ends = self._interval_ends(members, mask)
            if ends is not None:
                return self._derived(members, *ends)
        covers = []
        for u in members:
            for v in iter_bits(self.up[u] & mask & ~(1 << u)):
                between = self.up[u] & self.down[v] & mask & ~((1 << u) | (1 << v))
                if not between:
                    covers.append((self.names[u], self.names[v]))
        return Lattice(covers, elements=[self.names[v] for v in members])

    def _interval_ends(self, members, mask):
        """(y, x) when the distinct ids `members`, whose bits make `mask`,
        are exactly the interval [y, x]; else None.  O(k) for k members."""
        # in [y, x] every other member lies strictly above y and below x
        y = min(members, key=self.height.__getitem__)
        x = max(members, key=self.height.__getitem__)
        if self.up[y] & self.down[x] == mask:
            return y, x
        return None

    def _derived(self, members, bottom, top):
        """The lattice on the sorted ids `members`, holding `bottom` and
        `top`, whose covers are this lattice's covers among them; unchecked.

        Every caller guarantees those are the covers of a sublattice: an
        interval [y, x] (`restrict`, the tree nodes of `pipeline`), or this
        lattice without doubly irreducible elements v, each with o ≺ v ≺ i
        and another kept element between o and i (`slim` drops eyes,
        `restrict_gluing` an added t).  Every chain through such a v can go
        through that other element instead, so the order, heights and
        covers of the rest stay (only (o, i) could have become a cover), and
        v is no join or meet of two others.  Ids keep their relative order,
        so the cover lists stay sorted, and this lattice's heights order the
        members linearly.

        One loop over the members reads each member's upper covers once:
        every cover (i, j) found there goes to i's upper list, j's lower
        list and the cover pairs, so all three come out sorted.  The masks
        and heights come from `_closure`, as for every lattice, and not from
        this lattice's heights less a constant: in a lattice that is not
        graded, an interval's own heights need not be such a shift.
        """
        k = len(members)
        pos = dict(zip(members, range(k)))
        get = pos.get
        upper_covers, height, names = self.upper_covers, self.height, self.names
        upper, lower = [], [[] for _ in range(k)]
        covers, heights, labels = [], [], []
        for i, v in enumerate(members):
            ups = []
            for w in upper_covers[v]:
                j = get(w)
                if j is not None:
                    ups.append(j)
                    lower[j].append(i)
                    covers.append((i, j))
            upper.append(tuple(ups))
            heights.append(height[v])
            labels.append(names[v])
        new = Lattice.__new__(Lattice)
        new._fill(tuple(labels), tuple(upper), tuple(map(tuple, lower)),
                  sorted(range(k), key=heights.__getitem__), pos[bottom], pos[top],
                  covers=tuple(covers))
        return new

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Lattice)
                and self.names == other.names and self.covers == other.covers)

    __hash__ = None

    def __repr__(self):
        return f"Lattice({self.n} elements, {len(self.covers)} covers)"


class _Growing:
    """A lattice grown in place.  The root check's hull (`ops._Hull`) grows
    here by doubly irreducible elements, and so do drawn diagrams
    (`diagram._GrowingDiagram`), by eyes and by elements beside the
    boundary (one-step extensions and drawn hulls), and by gluings over a
    chain, which append their own covers and heights
    (`diagram._GrowingDiagram.glue`, whose docstring shows that nothing
    can fail there).

    It holds mutable cover lists and heights under `Lattice`'s field names,
    and no labels or masks.  `add(a, c)` appends a new element t with
    a ≺ t ≺ c in O(1) amortized and returns its id; `lattice(names)` freezes
    the result once, unchecked, and builds every mask in one closure pass in
    height order.  Callers keep their own labels.

    Nothing can fail when a < c and (a, c) is not a cover, which every
    caller guarantees.  The old order is kept, since a < c already, and so
    are the old covers, since (a, c) was none.  t has a join and a meet with
    every x: x ∨ t is t when x ≤ a and x ∨ c otherwise, and x ∧ t is t when
    x ≥ c and x ∧ a otherwise.  Old pairs keep their bounds: if x, y ≤ a
    then x ∨ y ≤ a < t, so t is only one more upper bound of x ∨ y, and
    dually.  Heights stay, because c lies at least two levels above a, so
    height order stays a linear extension.
    """

    def __init__(self, lat):
        self.upper_covers = [list(ws) for ws in lat.upper_covers]
        self.lower_covers = [list(ws) for ws in lat.lower_covers]
        self.height = list(lat.height)
        self.bottom = lat.bottom
        self.top = lat.top

    def add(self, a, c):
        """Add a new element t with a ≺ t ≺ c only; t's id."""
        t = len(self.height)
        self.upper_covers[a].append(t)
        self.upper_covers.append([c])
        self.lower_covers[c].append(t)
        self.lower_covers.append([a])
        self.height.append(self.height[a] + 1)
        return t

    def lattice(self, names):
        """The grown lattice labelled by `names`, one per id.  Cover lists
        stay sorted, because every new id is the largest so far."""
        height = self.height
        return Lattice._trusted(
            tuple(names), tuple(map(tuple, self.upper_covers)),
            tuple(map(tuple, self.lower_covers)),
            sorted(range(len(height)), key=height.__getitem__),
            self.bottom, self.top)


def _first_unused(prefix, taken, k):
    """The first label `prefix` + j, for j = k, k + 1, ..., that `taken`
    does not hold, and that j."""
    while f"{prefix}{k}" in taken:
        k += 1
    return f"{prefix}{k}", k


def is_semimodular(lat):
    """Upper semimodularity, in its local form: any two upper covers of one
    element have a common upper cover.  Reads C(d, 2) pairs for an element
    with d upper covers.

    Two distinct upper covers a, b have a common upper cover exactly when
    a ∨ b covers both: if j covers a and b, then a < a ∨ b ≤ j, and a ≺ j
    gives a ∨ b = j.  This local form equals the cover form,
    a ∧ b ≺ a ⇒ b ≺ a ∨ b.  The local form is the cover form for two upper
    covers a, b of c = a ∧ b.  Conversely, let c = a ∧ b ≺ a; if b ≤ a,
    then b = c ≺ a = a ∨ b.  Otherwise c < b, and we induct on the length
    of [c, b].  Pick c ≺ b₁ ≤ b; b₁ ≠ a, since a ≰ b.  The local form at c
    gives b₁ ≺ a ∨ b₁ =: a₁.  Then a₁ ∧ b = b₁: it lies in
    [b₁, a₁] = {b₁, a₁}, and a₁ ≤ b would put a ≤ b.  So a₁ ∧ b ≺ a₁, and
    [b₁, b] is shorter than [c, b]: by induction b ≺ a₁ ∨ b, which is
    a ∨ b₁ ∨ b = a ∨ b.
    """
    upper = lat.upper_covers
    for ups in upper:
        for i, a in enumerate(ups):
            for b in ups[i + 1:]:
                if set(upper[a]).isdisjoint(upper[b]):
                    return False
    return True


@dataclass(frozen=True)
class Irreducibility:
    join_irreducible: bool
    meet_irreducible: bool
    doubly_irreducible: bool


def irreducibility(lat, x):
    """Join/meet irreducibility of one element, by counting its covers."""
    ji = len(lat.lower_covers[x]) == 1
    mi = len(lat.upper_covers[x]) == 1
    return Irreducibility(ji, mi, ji and mi)


def interval(lat, a, b):
    """The interval [a, b] as a lattice of its own."""
    if not lat.leq(a, b):
        raise NotComparable(f"{lat.names[a]!r} is not below {lat.names[b]!r}")
    return lat.restrict(iter_bits(lat.up[a] & lat.down[b]))


@dataclass(frozen=True)
class SubsetRole:
    members: frozenset
    is_ideal: bool
    is_filter: bool
    is_chain: bool
    is_sublattice: bool


def _is_ideal_mask(lat, mask):
    """Whether the nonempty `mask` is an ideal.  In a finite lattice every
    ideal is ↓ of its greatest member, the join of all members, which is
    also its unique highest one; and every ↓v is an ideal."""
    return lat.down[max(iter_bits(mask), key=lat.height.__getitem__)] == mask


def _is_filter_mask(lat, mask):
    """Whether the nonempty `mask` is a filter: ↑ of its lowest member,
    dually to `_is_ideal_mask`."""
    return lat.up[min(iter_bits(mask), key=lat.height.__getitem__)] == mask


def _is_chain_mask(lat, mask):
    """Whether `mask` is a chain: each member, by height, lies below the next."""
    members = sorted(iter_bits(mask), key=lat.height.__getitem__)
    down = lat.down
    return all(down[b] >> a & 1 for a, b in zip(members, members[1:]))


def classify_subset(lat, members):
    """Report which of ideal / filter / chain / sublattice hold for a subset."""
    members = frozenset(members)
    if not members:
        raise EmptySet("cannot classify the empty subset")
    mask = lat.mask_of(members)
    join_closed = meet_closed = True
    ms = sorted(members)
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            if not mask >> lat.join(a, b) & 1:
                join_closed = False
            if not mask >> lat.meet(a, b) & 1:
                meet_closed = False
        if not (join_closed or meet_closed):
            break
    return SubsetRole(members, _is_ideal_mask(lat, mask), _is_filter_mask(lat, mask),
                      _is_chain_mask(lat, mask), join_closed and meet_closed)


# -- isomorphism ---------------------------------------------------------

def _joint_colors(lat1, lat2):
    """Neighbourhood refinement over both lattices with one shared palette,
    so equal color ids mean equal invariants across the two."""

    def signatures(lat, colors):
        return [(colors[v],
                 tuple(sorted(colors[w] for w in lat.upper_covers[v])),
                 tuple(sorted(colors[w] for w in lat.lower_covers[v])))
                for v in range(lat.n)]

    palette = {}
    c1 = [palette.setdefault((lat1.height[v], len(lat1.upper_covers[v]),
                              len(lat1.lower_covers[v])), len(palette))
          for v in range(lat1.n)]
    c2 = [palette.setdefault((lat2.height[v], len(lat2.upper_covers[v]),
                              len(lat2.lower_covers[v])), len(palette))
          for v in range(lat2.n)]
    while True:
        palette = {}
        n1 = [palette.setdefault(s, len(palette)) for s in signatures(lat1, c1)]
        n2 = [palette.setdefault(s, len(palette)) for s in signatures(lat2, c2)]
        if len(set(n1) | set(n2)) == len(set(c1) | set(c2)):
            return n1, n2
        c1, c2 = n1, n2


def is_isomorphic(lat1, lat2):
    """An order-isomorphism lat1 -> lat2 as an id map, or None.

    Invariant refinement first, then backtracking over color classes;
    deterministic for fixed inputs.

    A completed map takes covers onto covers, bijectively, with no check
    at the end: `consistent` tests each cover of lat1 when its second end
    is mapped, so the image of every cover is a cover of lat2; the map is
    injective (`used`), so distinct covers have distinct images; and both
    lattices have as many covers, checked on entry, so the images are all
    of lat2's covers.  A bijection that preserves and reflects covers
    preserves and reflects the order, their transitive closure.
    """
    if lat1.n != lat2.n or len(lat1.covers) != len(lat2.covers):
        return None
    c1, c2 = _joint_colors(lat1, lat2)
    if sorted(c1) != sorted(c2):
        return None
    class_size = {}
    for c in c1:
        class_size[c] = class_size.get(c, 0) + 1
    order = sorted(range(lat1.n), key=lambda v: (class_size[c1[v]], c1[v], v))
    candidates = {v: [w for w in range(lat2.n) if c2[w] == c1[v]] for v in order}
    mapping = [-1] * lat1.n
    used = [False] * lat2.n

    def consistent(v, w):
        for u in lat1.upper_covers[v]:
            if mapping[u] != -1 and not lat2.is_cover(w, mapping[u]):
                return False
        for u in lat1.lower_covers[v]:
            if mapping[u] != -1 and not lat2.is_cover(mapping[u], w):
                return False
        return True

    # depth-first over `order`, candidates in list order; next_try[i] is
    # where order[i] resumes, an explicit stack instead of recursion
    next_try = [0] * lat1.n
    i = 0
    while 0 <= i < lat1.n:
        v, cands = order[i], candidates[order[i]]
        if mapping[v] != -1:  # back from a dead end: undo v's choice
            used[mapping[v]] = False
            mapping[v] = -1
        k = next_try[i]
        while k < len(cands) and (used[cands[k]] or not consistent(v, cands[k])):
            k += 1
        if k == len(cands):
            next_try[i] = 0
            i -= 1
        else:
            mapping[v], used[cands[k]], next_try[i] = cands[k], True, k + 1
            i += 1
    if i < 0:
        return None
    return {v: mapping[v] for v in range(lat1.n)}
