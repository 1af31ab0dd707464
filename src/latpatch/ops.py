"""Constructive steps on planar semimodular diagrams.

Gluing two lattices over a chain (checked here, made on the drawn grower
`diagram._GrowingDiagram`), adding a doubly irreducible element beside a
boundary triple, pulling a gluing witness back through such an
extension, extending a lattice until it is rectangular, cutting a slim
rectangular lattice at a boundary element, and reading that cut of a slim
lattice's hull off one run of the site process.
"""

from dataclasses import dataclass
from functools import cached_property

from .core import (Lattice, _closure, _Growing, _is_chain_mask, _is_filter_mask,
                   _is_ideal_mask, iter_bits)
from .diagram import (Diagram, _boundary_data, _GrowingDiagram, _interval_rectangular,
                      _patch, _rectangular, _slim, is_rectangular, subdiagram)
from .errors import (AssertionFailed, BadX, ChainWasSingletonT, ImproperWitness,
                     InvalidSite, IsPatch, IterationBoundExceeded, NotAChain,
                     NotAFilter, NotAnIdeal, NotIso, NotRectangular,
                     StuckNotRectangular)


@dataclass(frozen=True)
class ExtensionStep:
    """One boundary extension, by labels: the site a ≺ b ≺ c on `side` and
    the new element t with a ≺ t ≺ c only."""
    a: object
    b: object
    c: object
    side: str
    t: object


@dataclass(frozen=True)
class GluingWitness:
    """An ideal A and a filter B covering the ambient lattice, meeting in
    a nonempty chain C = A ∩ B.  Sets hold element ids of `ambient`."""
    ambient: Lattice
    A: frozenset
    B: frozenset
    C: frozenset

    @property
    def proper(self):
        full = self.ambient.n
        return len(self.A) < full and len(self.B) < full

    def labels(self):
        amb = self.ambient
        return (amb.labels(self.A), amb.labels(self.B), amb.labels(self.C))


@dataclass(frozen=True)
class DecompositionCut:
    """A cut of a slim rectangular diagram at a boundary element x into the
    parts [0, x] and [pivot, 1], which overlap in the chain [pivot, x].  The
    parts' diagrams are built when first read."""
    x: int
    pivot: int
    ambient: Diagram
    chain: tuple
    mode: str

    @cached_property
    def bottom_part(self):
        return subdiagram(self.ambient, iter_bits(self.ambient.lattice.down[self.x]))

    @cached_property
    def top_part(self):
        return subdiagram(self.ambient, iter_bits(self.ambient.lattice.up[self.pivot]))


def validate_witness(w):
    """None when the witness is valid and proper; else a reason.  Each set
    is read once.  A and B are decided by their generators: A must be ↓ of
    its highest member and B ↑ of its lowest (see `core._is_ideal_mask`).
    Members tied at A's top height are incomparable, so then no choice
    makes A an ideal; dually for B.  C is a chain when, sorted by height,
    each member lies below the next; members of equal height fall next to
    each other and fail."""
    amb = w.ambient
    if not w.A or not w.B:
        return "empty part"
    a_mask = amb.mask_of(w.A)
    b_mask = amb.mask_of(w.B)
    height = amb.height.__getitem__
    if amb.down[max(w.A, key=height)] != a_mask:
        return "A is not an ideal"
    if amb.up[min(w.B, key=height)] != b_mask:
        return "B is not a filter"
    c_mask = a_mask & b_mask
    if amb.mask_of(w.C) != c_mask:
        return "C is not A ∩ B"
    if not c_mask:
        return "overlap is empty"
    chain, down = sorted(w.C, key=height), amb.down
    for a, b in zip(chain, chain[1:]):
        if not down[b] >> a & 1:
            return "overlap is not a chain"
    if a_mask | b_mask != amb.full_mask:
        return "A ∪ B does not cover the lattice"
    if not w.proper:
        return "witness is not proper"
    return None


# -- gluing over a chain ---------------------------------------------------

def glue_over_chain(lower, upper, iso, max_synth=16):
    """Glue `upper` on top of `lower`, identifying a filter-chain of the
    lower piece with an ideal-chain of the upper one.

    `iso` maps lower-piece labels onto upper-piece labels and must be an
    order isomorphism between the two chains.  Once that is checked, the
    gluing is made in place on a grown copy of `lower`
    (`diagram._GrowingDiagram.glue`), which reuses the coordinates when
    they still draw planarly (they do whenever the pieces come from a
    recorded cut), and otherwise synthesizes an embedding.
    """
    la, lb = lower.lattice, upper.lattice
    if not iso:
        raise NotAChain("the overlap chain must be nonempty")
    try:
        dom = [la.id_of(x) for x in iso]
        img = [lb.id_of(iso[x]) for x in iso]
    except KeyError as exc:
        raise NotIso(f"isomorphism mentions unknown element {exc.args[0]!r}")
    if len(set(img)) != len(img):
        raise NotIso("isomorphism is not injective")
    dom_mask, img_mask = la.mask_of(dom), lb.mask_of(img)
    if not _is_filter_mask(la, dom_mask):
        raise NotAFilter("domain of the overlap is not a filter of the lower piece")
    if not _is_chain_mask(la, dom_mask):
        raise NotAChain("domain of the overlap is not a chain")
    if not _is_ideal_mask(lb, img_mask):
        raise NotAnIdeal("image of the overlap is not an ideal of the upper piece")
    if not _is_chain_mask(lb, img_mask):
        raise NotAChain("image of the overlap is not a chain")
    dom_sorted = sorted(dom, key=lambda v: la.height[v])
    img_sorted = sorted(img, key=lambda v: lb.height[v])
    for d, i in zip(dom_sorted, img_sorted):
        if lb.id_of(iso[la.names[d]]) != i:
            raise NotIso("mapping does not respect the chain order")

    grown = _GrowingDiagram(lower)
    grown.glue(upper, list(zip(dom_sorted, img_sorted)), max_synth)
    return grown.diagram()


# -- one-step extensions and the rectangular hull ----------------------------

def _sites(lat, chains):
    """Boundary triples a ≺ b ≺ c with a meet-irreducible and c
    join-irreducible, each with a's position in its chain: on the left
    chain bottom-up, then on the right."""
    upper, lower = lat.upper_covers, lat.lower_covers
    for side, chain in zip(("left", "right"), chains):
        for i in range(len(chain) - 2):
            if len(upper[chain[i]]) == 1 and len(lower[chain[i + 2]]) == 1:
                yield i, (chain[i], chain[i + 1], chain[i + 2], side)


def find_extension_sites(diag):
    """Boundary triples a < b < c with a meet-irreducible and c
    join-irreducible; left-boundary sites bottom-up, then right."""
    b = diag.boundary
    return [site for _, site in _sites(diag.lattice, (b.left_chain, b.right_chain))]


def _cascades(chains, up, down, lo, hi, bound):
    """The site process on a diagram's two boundary chains alone, one
    cascade of steps at a time.  `up` and `down` count each element's upper
    and lower covers, `lo` and `hi` are its links into the input (see
    `_link_cut`), all by id, and each added element takes the next id.  Each
    cascade is applied to the chains, counts and links, and then yielded as
    its side and its chain's segment c_j, …, c_{i+2} from before it.  More
    than `bound` steps raise `IterationBoundExceeded`.

    The process extends at the first site in `_sites` order for as long as
    one is left.  A step puts a fresh t with a ≺ t ≺ c in place of b and
    adds covers only to a and c, so counts only grow.  A site needs two
    counts of one, so a right step makes no left site, and the left side
    runs to its end first.  Counts are kept by id because the bottom, the
    top and any cut point lie on both chains.

    On one chain c_0, …, c_k, let i be the lowest site, with up(c_i) = 1 =
    down(c_{i+2}), and j ≤ i the lowest position with up(c_j) = … = up(c_i)
    = 1.  The process steps at i, i − 1, …, j, in that order.  By downward
    induction, the step at q adds t_{q+1} at position q + 1, with lower
    cover c_q and upper cover t_{q+2} (c_{i+2} when q = i), which gains a
    second lower cover; c_q gains a second upper cover.  So q − 1 is a site
    exactly when up(c_{q−1}) = 1, which holds down to j and fails at j − 1.
    No site lies lower: a position p ≤ q − 2 still holds c_p, which was no
    site, and neither up(c_p) nor down(c_{p+2}) changed.  So t_{q+1} is the
    (i − q)-th element the cascade adds, counting from 0, and its links are
    lo(c_q) and hi(c_{i+2}).
    After the step at j, c_j has two upper covers and c_{i+2} and t_{j+2},
    …, t_{i+1} two lower covers each, so no position from j − 1 to i is a
    site, while t_{j+1}, …, t_{i+1} have one upper cover each.  So the scan
    goes on at i + 1 with its run of one-upper-cover positions starting at
    j + 1.  A side takes O(k) turns of the scan, and list operations in
    proportion to its steps.
    """
    steps = 0
    for side, chain in zip(("left", "right"), chains):
        q = run = 0  # no site below q; up(c_p) = 1 for p from run to q - 1
        while q < len(chain) - 2:
            if up[chain[q]] != 1:
                run = q + 1
            elif down[chain[q + 2]] == 1:
                m = q - run + 1
                if steps + m > bound:
                    raise IterationBoundExceeded(
                        f"still not rectangular after {bound} extensions")
                steps += m
                seg = chain[run:q + 3]
                t = len(lo)
                chain[run + 1:q + 2] = range(t + m - 1, t - 1, -1)
                for a in seg[:-2]:
                    up[a] += 1
                down[seg[-1]] += 1
                up += [1] * m
                down += [2] * (m - 1) + [1]
                lo += [lo[a] for a in reversed(seg[:-2])]
                hi += [hi[seg[-1]]] * m
                yield side, seg
                run += 1
            q += 1


def _corners(chains, up, down):
    """The weak corners u_l and u_r from the cover counts `up` and `down`
    (None where a side has not exactly one): the inner elements of each
    chain with one upper and one lower cover, as `_boundary_data` finds
    them."""
    out = []
    for chain in chains:
        found = [v for v in chain[1:-1] if up[v] == 1 == down[v]]
        out.append(found[0] if len(found) == 1 else None)
    return out


def _site_process(diag):
    """One run of the site process on a diagram, eyes and all, a cascade at
    a time (`_cascades`): its final boundary chains, the cover counts `up` and
    `down` and the links `lo` and `hi`, all by id, and the list of its
    cascades, from which the root check grows the hull (`_Hull`) and
    `_drawn_hull` draws it.

    The process extends at the first site, left sites bottom-up before
    right ones, for as long as one is left.  More than n² steps, or a hull
    that is not rectangular, means the input was not a planar semimodular
    lattice; eyes are allowed (see `_link_cut`), and count towards n.
    `_cascades` counts the steps; `_link_cut`, `_Hull.close` and
    `rectangularize` report a hull that is not rectangular.

    The process ends at the first rectangular hull, so the run on a
    rectangular diagram has no cascade at all: a slim rectangular
    lattice with corners u_l and u_r has no site a ≺ b ≺ c, say on the
    left chain (the right one is the mirror).  If a < u_l, then b ≤ u_l;
    the atom r of the chain [0, u_r] lies neither below u_l nor below a,
    so a ∧ r = 0 and, by semimodularity, a ≺ a ∨ r ≰ u_l: a has two upper
    covers.  If a ≥ u_l, then c = u_l ∨ (c ∧ u_r) by Grätzer–Knapp's
    description of [u_l, 1] (or Czédli–Schmidt's grids plus forks), and
    c ∧ u_r < c; if b were c's only lower cover, it would lie above u_l
    and c ∧ u_r, hence above c.  Eyes are interior and only add covers,
    so they add no site.
    """
    lat, b = diag.lattice, diag.boundary
    chains = [list(b.left_chain), list(b.right_chain)]
    up = list(map(len, lat.upper_covers))
    down = list(map(len, lat.lower_covers))
    lo = list(range(lat.n))
    hi = list(lo)
    cascades = list(_cascades(chains, up, down, lo, hi, lat.n ** 2))
    return chains, up, down, lo, hi, cascades


def _stuck(n):
    return StuckNotRectangular(
        f"no extension site on a non-rectangular {n}-element lattice")


class _Hull(_Growing):
    """A diagram's lattice grown by a recorded run of the site process,
    undrawn and unlabelled: the root check's hull.

    It grows as a `core._Growing` and keeps `boundary`, the boundary data
    of the run's final chains; `close` adds the ↑ and ↓ masks.  A hull that
    is read is drawn instead (`_drawn_hull`).
    """

    def __init__(self, diag, chains, cascades):
        """Make each cascade's steps at i, i − 1, …, j in that order (see
        `_cascades`): the step at q adds t with c_q ≺ t ≺ c, c the t of
        the step before (c_{i+2} for the first), in place of c_{q+1}."""
        super().__init__(diag.lattice)
        for _, seg in cascades:
            c = seg[-1]
            for a in reversed(seg[:-2]):
                c = self.add(a, c)
        left, right = map(tuple, chains)
        self.boundary = _boundary_data(self, left, right)

    def close(self):
        """Add n, the full mask and the ↑ and ↓ masks, in one closure pass
        in height order, and return the boundary data.  A hull that is not
        rectangular is reported."""
        height = self.height
        self.n = len(height)
        self.full_mask = (1 << self.n) - 1
        self.up, self.down, _ = _closure(self.upper_covers, self.lower_covers,
                                         sorted(range(self.n), key=height.__getitem__))
        b = self.boundary
        if not _rectangular(self, b.u_l, b.u_r, self.bottom, self.top):
            raise _stuck(self.n)
        return b


def _drawn_hull(diag, cascades):
    """The hull that a run of the site process on `diag` grows, drawn, and
    its `ExtensionStep`s: each cascade's steps at i, i − 1, …, j (see
    `_cascades`), made again in that order by `_GrowingDiagram.extend` on
    a grown copy of `diag`.  The copy's chains go as the run's did, so
    a cascade's segment c_j, …, c_{i+2} starts at j on its side's chain,
    and they end as the run's final chains.  The lattice is frozen once."""
    grown, steps = _GrowingDiagram(diag), []
    for side, seg in cascades:
        j = grown.chains[side == "right"].index(seg[0])
        steps += [ExtensionStep(*grown.extend(side, i))
                  for i in range(j + len(seg) - 3, j - 1, -1)]
    return grown.diagram(), steps


def one_step_extension(diag, site):
    """Add a fresh doubly irreducible t with a < t < c beside the boundary,
    at `site`, a site from `_sites`, on a grown copy of `diag`
    (`_GrowingDiagram.extend`).  The lattice and the boundary are derived
    from the old ones in O(n)."""
    grown = _GrowingDiagram(diag)
    for i, found in _sites(grown, grown.chains):
        if found == site:
            step = ExtensionStep(*grown.extend(site[3], i))
            return grown.diagram(), step
    raise InvalidSite(f"{site!r} is not an extension site")


def rectangularize(diag):
    """The rectangular hull of `diag` by one run of the site process (see
    `_site_process`), drawn (`_drawn_hull`), and its extension steps.  A
    rectangular diagram is returned as is; a lattice that needs more than
    n² steps raises `IterationBoundExceeded`, and a drawn hull that is not
    rectangular `StuckNotRectangular`."""
    if is_rectangular(diag):
        return diag, []
    rect, steps = _drawn_hull(diag, _site_process(diag)[-1])
    if not is_rectangular(rect):
        raise _stuck(rect.lattice.n)
    return rect, steps


def restrict_gluing(witness, step):
    """Drop t from a witness for the extended lattice, giving one for the
    original: A' = A - {t}, B' = B - {t}, C' = C - {t}.

    The witness must live on a lattice where t is a ≺ t ≺ c with no other
    covers and a ≺ b ≺ c, as `step` left it."""
    amb = witness.ambient
    a, b, c, t = (amb.index.get(x) for x in (step.a, step.b, step.c, step.t))
    if (t is None or amb.lower_covers[t] != (a,) or amb.upper_covers[t] != (c,)
            or b is None or not amb.is_cover(a, b) or not amb.is_cover(b, c)):
        raise ImproperWitness("witness does not live on the extended lattice")
    if witness.C == {t}:
        raise ChainWasSingletonT(
            "overlap chain is exactly {t}; no valid witness can do that")
    reason = validate_witness(witness)
    if reason is not None:
        raise ImproperWitness(reason)
    kept = [v for v in range(amb.n) if v != t]
    return _pull_back(witness, amb._derived(kept, amb.bottom, amb.top))


def _pull_back(witness, base):
    """The witness restricted to the labels of `base`, a lattice the
    witness's ambient extends by doubly irreducible elements only, once it
    is valid.

    Each added t has a ≺ t ≺ c with a < c still in `base`, so dropping all
    of them at once gives the same sets as dropping them one at a time."""
    names, index = witness.ambient.names, base.index

    def keep(ids):
        return frozenset(index[names[v]] for v in ids if names[v] in index)

    pulled = GluingWitness(base, keep(witness.A), keep(witness.B), keep(witness.C))
    reason = validate_witness(pulled)
    if reason is not None:
        raise AssertionFailed(f"restricted witness is invalid: {reason}")
    return pulled


# -- the rectangular cut -----------------------------------------------------

def _cut(lat, b, x, mode):
    """The pivot and the overlap [pivot, x] of the cut of a slim rectangular
    lattice at x on its upper boundary.  `lat` holds the masks and covers (a
    `Lattice`, or a closed `_Hull`, which has no labels) and `b` its
    boundary data.
    `decompose_at` cuts here, and so does the pipeline, on the root's slim
    hull only: every node's cut, the root's too, is read off its boundary
    chains' links (`_link_cut`), and the root's hull cut must agree.

    Left mode cuts along [0, x] and [x ∧ u_r, 1]; mirrored mode swaps the
    corner roles.  Every claim made for the cut is asserted, not assumed.
    """
    if not _rectangular(lat, b.u_l, b.u_r, lat.bottom, lat.top):
        raise BadX("lattice is not rectangular")
    if not _slim(lat, lat.full_mask):
        raise BadX("lattice is not slim")
    if mode == "left":
        chain, corner, opposite = b.left_chain, b.u_l, b.u_r
    elif mode == "mirrored":
        chain, corner, opposite = b.right_chain, b.u_r, b.u_l
    else:
        raise BadX(f"unknown mode {mode!r}")
    if x not in chain[chain.index(corner):] or x in (corner, lat.top):
        raise BadX(f"element {x!r} is not a cuttable boundary element")

    up, down = lat.up, lat.down
    # x ∧ opposite is the highest of their common lower bounds
    pivot = max(iter_bits(down[x] & down[opposite]), key=lat.height.__getitem__)
    if pivot == lat.bottom:
        raise AssertionFailed("the cut pivot fell to the bottom element")
    # x = corner ∨ pivot: x is their only common upper bound below x
    if up[corner] & up[pivot] & down[x] != 1 << x:
        raise AssertionFailed("x is not the join of the corner and the pivot")
    chain_mask = up[pivot] & down[x]
    if not _is_chain_mask(lat, chain_mask):
        raise AssertionFailed("the overlap [pivot, x] is not a chain")
    chain_ids = tuple(iter_bits(chain_mask))

    # the parts are the intervals [0, x] and [pivot, 1], checked on this
    # lattice's masks and covers; `DecompositionCut` builds their diagrams
    # when read
    if down[x].bit_count() + up[pivot].bit_count() - len(chain_ids) != lat.n:
        raise AssertionFailed("the two parts do not cover the lattice")
    for y, top in ((lat.bottom, x), (pivot, lat.top)):
        if not _interval_rectangular(lat, y, top):
            raise AssertionFailed("a part of the cut is not rectangular")
        if not _slim(lat, up[y] & down[top]):
            raise AssertionFailed("a part of the cut is not slim")
    return pivot, chain_ids


def decompose_at(diag, x, mode):
    """Cut a slim rectangular diagram at x on its upper boundary, every
    claim asserted (see `_cut`)."""
    pivot, chain = _cut(diag.lattice, diag.boundary, x, mode)
    return DecompositionCut(x, pivot, diag, chain, mode)


def _choose(lat, b):
    """The canonical cut element and mode of a lattice with masks and
    covers and boundary data `b`: the boundary cover of whichever corner is
    not a dual atom (left corner preferred)."""
    if lat.n == 2 or _patch(lat, b):
        raise IsPatch("patch lattices admit no cut")
    if not _rectangular(lat, b.u_l, b.u_r, lat.bottom, lat.top):
        raise NotRectangular("choose_x requires a rectangular lattice")
    if lat.top not in lat.upper_covers[b.u_l]:
        chain, corner, mode = b.left_chain, b.u_l, "left"
    else:  # rectangular and no patch: with u_l a dual atom, u_r is none
        chain, corner, mode = b.right_chain, b.u_r, "mirrored"
    return chain[chain.index(corner) + 1], mode


def choose_x(diag):
    """The canonical cut element of a diagram and its mode (see `_choose`)."""
    return _choose(diag.lattice, diag.boundary)


def _link_cut(diag):
    """The cut of a diagram through the rectangular hull of its slim
    diagram with no hull built and no eye removed: the run of the site
    process (`_site_process`), the x and pivot in hull ids of the cut that
    `_choose` and `_cut` give on the closed hull (None for the 3-element
    chain, whose hull is a patch), and the cut's witness on the diagram's
    lattice, unchecked.  The cut is read off the run's final chains, their
    elements' cover counts and the links, with no closure and no cut.  The
    proof below is for a slim diagram; the last item carries it over to
    one with eyes.

    Let H be the hull, L the slim lattice, and lo and hi the links of H's
    elements into L: v and v for an element of L, lo(a) and hi(c) for an
    added t (`_cascades`).  A rectangular L has no site (`_site_process`),
    so its run has no cascade: H = L, both links are the identity, and
    `_corners` counts L's covers as `_boundary_data` does, which gives L's
    own corners.
    - Links.  The elements of L below u in H are those below lo(u), and
      those above u are those above hi(u).  Each t was added with
      a ≺ t ≺ c only, and a later step keeps the order among the elements
      already there, even when it adds a cover to t.  So the elements of
      L below t are those below a, and those above t are those above c:
      by induction on t, those below lo(t) and those above hi(t).
    - Order.  u ≤ v in H iff hi(u) ≤ lo(v) in L, unless u and v were both
      added on the same side.  In H, u ≤ hi(u) and lo(v) ≤ v, and H keeps
      L's order, so hi(u) ≤ lo(v) gives u ≤ v.  Conversely, take a cover
      path u = z_0 ≺ z_1 ≺ … ≺ z_k = v in H.  A cover of H is one of L or
      a ≺ t or t ≺ c of the step that added t, and that step's a and c
      lay on its side's chain then.  A left step puts its t on the left
      chain only, and a right step on the right one, so the left chain
      holds only elements of L and left t's, and the right chain the
      mirror.  So two added elements next to each other on the path were
      added on the same side, and a path that avoids L stays on one side,
      which the exception excludes.  Otherwise the path passes some z of
      L, and hi(u) ≤ z ≤ lo(v) by the links.
    - Corners and x.  A rectangular H has one weak corner per side, an
      inner element of its chain with one upper and one lower cover
      (`_corners`); anything else is reported.  A corner's one upper
      cover is its successor on its chain.  So, as in `_choose`, the mode
      is left unless u_l's successor is the top, and x is the corner's
      successor.
    - Patch hull.  Both corners are dual atoms only in a patch hull, which
      only the 3-element chain 0 ≺ m ≺ 1 grows, and which has no cut; its
      witness is (↓m, ↑m, {m}), the oracle's first answer (a patch L is a
      leaf, never cut).  The last added t, a ≺ t ≺ c, is doubly
      irreducible on its side's chain, so it is that side's corner, in a
      patch a dual atom: c = 1.  A site needs c join-irreducible, so
      before the last step 1 had the one lower cover b, and after it
      exactly b and t.  So b is the other corner, also a dual atom, and
      a = t ∧ b = 0 is the only lower cover of each.  All else would lie
      below t or b, so H is {0, t, b, 1} and L {0, b, 1}.
    - Pivot.  `_cut`'s pivot is x ∧ o for the opposite corner o.  In a
      slim rectangular lattice ↓o is o's chain from 0 to o (Grätzer–Knapp,
      *Notes on planar semimodular lattices III*), so x ∧ o is the highest
      y on that prefix with y ≤ x, and the members below x are the
      prefix's first ones.  y and x lie on opposite chains, so they were
      not added on the same side, and y ≤ x iff hi(y) ≤ lo(x).
    - Witness.  The cut's witness (↓x, ↑pivot) on H is (↓lo(x), ↑hi(pivot))
      on L, by the links.
    - Eyes.  Now let L have eyes and S be its slim lattice, L less its
      eyes.  An eye is an interior middle of a covering square [o, i]
      whose two outer atoms stay (Czédli–Schmidt, *Slim semimodular
      lattices. I. A visual approach*), so the run on L is the run on S,
      element for element, and the x, pivot and witness are those of S's
      cut, the witness lifted:
      - Walks.  All upper covers of an element lie one level above it, so
        the angularly extreme one has the extreme x.  An eye has atoms of
        its interval on both sides, so no walk turns onto it, and L's
        boundary chains are S's.
      - Counts.  An eye's lower cover o keeps at least two upper covers in
        S, the outer atoms, and its upper cover i at least two lower
        covers.  `_cascades`, `_corners` and `_boundary_data` compare a
        count with 1 only, and their increments keep o and i at two or
        more, so they decide on L as on S.  The corners' join and meet
        read off L's masks are S's: an upper bound of two non-eyes that
        is an eye lies above its lower cover o, an upper bound in S, and
        dually.
      - Order.  The links and the pivot test touch no eye, and S keeps
        L's order on the elements that remain (`Lattice._derived`), so
        hi(y) ≤ lo(x) has the same answer in L and in S.
      - Witness.  (↓lo(x), ↑hi(pivot)) read on L, restricted to S, is
        S's witness, since S keeps L's order; the 3-element chain, the one
        patch hull, has no eyes.  `pipeline._trace` checks the run, the
        cut and this restriction on every root's slim hull.
      - Step bound.  The n² bound of `_site_process` counts the eyes too,
        which only loosens a guard that no planar semimodular L reaches.
    """
    lat = diag.lattice
    run = chains, up, down, lo, hi, _ = _site_process(diag)
    u_l, u_r = _corners(chains, up, down)
    if u_l is None or u_r is None:
        raise _stuck(len(lo))
    (left, right), top = chains, lat.top
    x = left[left.index(u_l) + 1]
    prefix, opposite = right, u_r
    if x == top:
        x = right[right.index(u_r) + 1]
        if x == top:
            if lat.n != 3:
                raise AssertionFailed(
                    f"the hull of a {lat.n}-element slim lattice is a patch")
            (m,) = lat.upper_covers[lat.bottom]
            return run, None, _principal(lat, m, m)
        prefix, opposite = left, u_l
    below_x, pivot = lat.down[lo[x]], lat.bottom
    for y in prefix[1:prefix.index(opposite) + 1]:
        if not below_x >> hi[y] & 1:
            break
        pivot = y
    if pivot == lat.bottom:
        raise AssertionFailed("the cut pivot fell to the bottom element")
    return run, (x, pivot), _principal(lat, lo[x], hi[pivot])


def _principal(lat, a, b):
    """The witness (↓a, ↑b, ↓a ∩ ↑b) on `lat`, unchecked."""
    below, above = frozenset(iter_bits(lat.down[a])), frozenset(iter_bits(lat.up[b]))
    return GluingWitness(lat, below, above, below & above)


def witness_from_cut(cut):
    """The witness (↓x, ↑pivot, [pivot, x]) a cut induces on its ambient."""
    return _principal(cut.ambient.lattice, cut.x, cut.pivot)
