"""End-to-end decomposition into patch lattices glued over chains.

`decompose` produces a certificate tree whose leaves are patch lattices
and whose inner nodes carry (ideal, filter, chain) witnesses; `verify_tree`
re-checks such a tree from scratch; `brute_force_gluing_search` is the
independent oracle that looks for a witness by scanning the O(n²) principal
ideal/filter pairs (↓x, ↑y).  That scan is complete, because every nonempty
ideal of a finite lattice is some ↓x and every nonempty filter some ↑y.
"""

from dataclasses import dataclass

from .core import _is_chain_mask, is_isomorphic, is_semimodular, iter_bits
from .diagram import (Diagram, _patch, is_patch, is_rectangular, slim,
                      subdiagram, validate_diagram)
from .errors import (AssertionFailed, NoDecomposition, NotSemimodular,
                     SizeBoundExceeded, StuckNotRectangular)
from .ops import (DecompositionCut, GluingWitness, _cascades,
                  _checked_restriction, _choose, _corners, _cut, _grow,
                  _principal, validate_witness)


@dataclass(frozen=True)
class DecompLeaf:
    diagram: Diagram


@dataclass(frozen=True)
class DecompGlue:
    left: object          # subtree for the ideal part
    right: object         # subtree for the filter part
    chain_size: int
    witness: GluingWitness
    diagram: Diagram


class PipelineTrace:
    """Artifacts of the top-level decomposition step, for replay checks: the
    removed eyes, the hull's `ExtensionStep`s, the `DecompositionCut` on the
    drawn hull (None for a patch hull) and whether the hull was a patch.

    The trace `decompose` returns holds its hull and cut undrawn (see
    `_trace`): `extension_steps` and `cut` are drawn when either is first
    read, and then kept.  Traces compare, hash and print by their four
    fields."""

    __slots__ = ("eyes", "fallback_used", "_drawn", "_undrawn")

    def __init__(self, eyes, extension_steps, cut, fallback_used):
        self.eyes = eyes
        self.fallback_used = fallback_used
        self._drawn = extension_steps, cut
        self._undrawn = None  # (slimmed, hull, cut) to draw while `_drawn` is None

    def _draw(self):
        if self._drawn is None:
            self._drawn, self._undrawn = _draw(*self._undrawn), None
        return self._drawn

    @property
    def extension_steps(self):
        return self._draw()[0]

    @property
    def cut(self):
        return self._draw()[1]

    def _fields(self):
        return self.eyes, self.extension_steps, self.cut, self.fallback_used

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        eyes, steps, cut, fallback = self._fields()
        return (f"PipelineTrace(eyes={eyes!r}, extension_steps={steps!r}, "
                f"cut={cut!r}, fallback_used={fallback!r})")


@dataclass(frozen=True)
class TreeViolation:
    path: str
    clause: str
    detail: str


# -- the independent oracle -------------------------------------------------

def _by_size_then_members(mask):
    return mask.bit_count(), tuple(iter_bits(mask))


def brute_force_gluing_search(diag, bound=None):
    """First proper witness (ideal, filter, nonempty chain overlap), smallest
    ideal first; None when there is none.

    A scan of the principal ideal/filter pairs (↓x, ↑y) with x not the top
    and y not the bottom, each side ordered by (size, members).  `bound`,
    when given, is a size gate.
    """
    lat = diag.lattice
    if bound is not None and lat.n > bound:
        raise SizeBoundExceeded(f"{lat.n} elements exceeds the oracle bound {bound}")
    full = lat.full_mask
    ideals = sorted((m for m in lat.down if m != full), key=_by_size_then_members)
    filters = sorted((m for m in lat.up if m != full), key=_by_size_then_members)
    for a_mask in ideals:
        for b_mask in filters:
            c_mask = a_mask & b_mask
            if a_mask | b_mask != full or not c_mask:
                continue
            if _is_chain_mask(lat, c_mask):
                return GluingWitness(lat, frozenset(iter_bits(a_mask)),
                                     frozenset(iter_bits(b_mask)),
                                     frozenset(iter_bits(c_mask)))
    return None


# -- decomposition ------------------------------------------------------------

def _lift_through_eyes(witness, full_diag):
    """A witness for the slimmed lattice, lifted to the full one as ↓a and ↑b,
    a the highest member of its A and b the lowest of its B, and validated.

    Exact: every removed eye has one upper cover and one lower cover, both
    kept, so an eye lies below a exactly when its upper cover does and above
    b exactly when its lower cover does, and the kept elements keep their
    order.

    Without eyes the slimmed lattice is the full one, and the witness is
    validated as it is: a valid A is ↓ of its highest member and a valid B
    ↑ of its lowest (`validate_witness`), so the lift would rebuild it
    unchanged."""
    slim_lat, lat = witness.ambient, full_diag.lattice
    lifted = witness
    if slim_lat is not lat:
        height = slim_lat.height
        a = lat.index[slim_lat.names[max(witness.A, key=height.__getitem__)]]
        b = lat.index[slim_lat.names[min(witness.B, key=height.__getitem__)]]
        lifted = _principal(lat, a, b)
    reason = validate_witness(lifted)
    if reason is not None:
        raise NoDecomposition(f"eye lifting produced an invalid witness: {reason}")
    return lifted


def _hull_path(slimmed):
    """The hull of a slim diagram (None when it is rectangular), its cut as
    (x, pivot, chain, mode) in hull ids (None for the 3-element chain), and
    the witness on the slim lattice, unchecked.  Only the root's trace
    takes this path (`_trace`).

    The hull is grown and closed by `ops._grow` and cut by `ops._cut` on
    its masks and covers; the cut's witness (↓x, ↑pivot) is pulled back to
    the slim lattice as (↓lo(x), ↑hi(pivot)) (`ops._Hull.pull_back`).
    Nothing is labelled or drawn.

    A hull that is a patch after extension steps comes only from the
    3-element chain 0 ≺ m ≺ 1, which has no cut; its witness is (↓m, ↑m,
    {m}), the oracle's first answer.  The last added t, a ≺ t ≺ c, is
    doubly irreducible on its side's chain, so it is that side's corner,
    in a patch a dual atom: c = 1.  A site needs c join-irreducible, so
    before the last step 1 had the one lower cover b, and after it exactly
    b and t.  So b is the other corner, also a dual atom, and a = t ∧ b = 0
    is the only lower cover of each.  All else would lie below t or b, so
    the hull is {0, t, b, 1} and the slim lattice {0, b, 1}.
    """
    lat = slimmed.lattice
    grown = _grow(slimmed)
    hull, b = grown or (lat, slimmed.boundary)
    if grown and _patch(hull, b):
        if lat.n != 3:
            raise AssertionFailed(
                f"the hull of a {lat.n}-element slim lattice is a patch")
        (m,) = lat.upper_covers[lat.bottom]
        return hull, None, _principal(lat, m, m)
    x, mode = _choose(hull, b)
    pivot, chain = _cut(hull, b, x, mode)
    if not grown:
        return None, (x, pivot, chain, mode), _principal(lat, x, pivot)
    return hull, (x, pivot, chain, mode), hull.pull_back(x, pivot)


def _link_cut(slimmed):
    """Whether a slim diagram with more than three elements grows a hull,
    and the x and pivot of its cut in hull ids and the witness on the slim
    lattice that `_hull_path` gives, unchecked.  No hull is built: the site
    process runs on the two boundary chains alone (`ops._cascades`), and
    the cut is read off the final chains, their elements' cover counts and
    the links, with no closure and no cut.  A rectangular diagram has no
    site (`ops._grow`): it is its own hull, and its boundary data gives
    the corners.

    Let H be the hull, L the slim lattice, and lo and hi the links of H's
    elements into L (`ops._Hull`); on a rectangular L, H = L and both are
    the identity.
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
      L.  The elements of L above u are those above hi(u), and those below
      v are those below lo(v) (`ops._Hull.pull_back`), so hi(u) ≤ z ≤ lo(v).
    - Corners and x.  A rectangular H has one weak corner per side, an
      inner element of its chain with one upper and one lower cover
      (`ops._corners`); anything else is reported.  Both corners are dual
      atoms only in a patch hull, which only the 3-element chain has (see
      `_hull_path`).  A corner's one upper cover is its successor on its
      chain.  So, as in `ops._choose`, the mode is left unless u_l's
      successor is the top, and x is the corner's successor.
    - Pivot.  `ops._cut`'s pivot is x ∧ o for the opposite corner o.  In a
      slim rectangular lattice ↓o is o's chain from 0 to o (Grätzer–Knapp,
      *Notes on planar semimodular lattices III*), so x ∧ o is the highest
      y on that prefix with y ≤ x, and the members below x are the
      prefix's first ones.  y and x lie on opposite chains, so they were
      not added on the same side, and y ≤ x iff hi(y) ≤ lo(x).
    - Witness.  `_hull_path` pulls (↓x, ↑pivot) back to L as
      (↓lo(x), ↑hi(pivot)) (`ops._Hull.pull_back`).
    """
    lat, b = slimmed.lattice, slimmed.boundary
    if is_rectangular(slimmed):
        chains, lo, hi = (b.left_chain, b.right_chain), range(lat.n), range(lat.n)
        u_l, u_r = b.u_l, b.u_r
    else:
        chains = [list(b.left_chain), list(b.right_chain)]
        up = list(map(len, lat.upper_covers))
        down = list(map(len, lat.lower_covers))
        lo = list(range(lat.n))
        hi = list(lo)
        for _ in _cascades(chains, up, down, lo, hi, lat.n ** 2):
            pass
        u_l, u_r = _corners(chains, up, down)
    if u_l is None or u_r is None:
        raise StuckNotRectangular(f"no extension site on a non-rectangular "
                                  f"{len(lo)}-element lattice")
    (left, right), top = chains, lat.top
    x = left[left.index(u_l) + 1]
    prefix, opposite = right, u_r
    if x == top:
        x = right[right.index(u_r) + 1]
        if x == top:
            raise AssertionFailed(
                f"the hull of a {lat.n}-element slim lattice is a patch")
        prefix, opposite = left, u_l
    below_x, pivot = lat.down[lo[x]], lat.bottom
    for y in prefix[1:prefix.index(opposite) + 1]:
        if not below_x >> hi[y] & 1:
            break
        pivot = y
    if pivot == lat.bottom:
        raise AssertionFailed("the cut pivot fell to the bottom element")
    return len(lo) > lat.n, (x, pivot), _principal(lat, lo[x], hi[pivot])


def _decompose_step(diag):
    """One decomposition step, undrawn: None for a patch, else the tuple
    (witness, eyes, slimmed, linked) of the lifted witness, the removed
    eyes, the slim diagram and the witness on the slim lattice.  No hull
    is built here; only the root's step becomes a trace, which grows,
    closes and cuts the root's hull (`_trace`).

    A chain 0 = c_0 ≺ c_1 ≺ … ≺ c_{n-1} = 1 with n ≥ 3 (n elements and
    n - 1 covers) gets its witness in closed form, (↓c, ↑c) with c at
    height min(2, n - 2), and runs no site process.  That is the witness
    `_hull_path` returns:
    - Hull.  Both boundary chains are the input, and the left one is
      scanned first.  With t_0 = 0, the site at position i is
      t_i ≺ c_{i+1} ≺ c_{i+2}; it adds t_{i+1} with t_i ≺ t_{i+1} ≺ c_{i+2}
      in place of c_{i+1}, which gives t_i and c_{i+2} a second cover, so
      the next site is at i + 1.  After t_{n-2} no site is left, and the
      hull is the 2 × (n - 1) grid: its left chain is 0, t_1, …, t_{n-2}, 1
      and its right chain the input.
    - Corners.  u_l = t_{n-2} is a dual atom and u_r = c_1, so `_choose`
      picks mirrored mode with x = c_2, the right chain's cover of u_r.
    - Cut and pull-back.  The pivot is x ∧ u_l = t_1, which `pull_back`
      maps up through its c to c_2; x is an input element.  So the
      witness is (↓c_2, ↑c_2).
    - n = 3.  The hull {0, c_1, t_1, 1} is a patch, which gives
      (↓c_1, ↑c_1).
    A chain has no eyes, so it is its own slim diagram.  Any other diagram
    that is not a patch is slimmed, and its witness is read off its
    boundary chains' links (`_link_cut`).

    Each witness is validated once on each lattice it lives on: one pulled
    back from a grown hull as a restriction (`ops._checked_restriction`),
    any other in the eye lift, and a lifted one there too.  Without eyes a
    pulled-back witness is returned as it is.
    """
    lat = diag.lattice
    if lat.n >= 3 and len(lat.covers) == lat.n - 1:
        c = lat.upper_covers[lat.bottom][0]
        if lat.n > 3:
            c = lat.upper_covers[c][0]
        witness = _lift_through_eyes(_principal(lat, c, c), diag)
        return witness, (), diag, witness
    if is_patch(diag):
        return None
    slimmed, eyes = slim(diag)
    grown, _, linked = _link_cut(slimmed)
    if grown:  # pulled back from a grown hull
        _checked_restriction(linked)
        if not eyes:
            return linked, (), slimmed, linked
    return _lift_through_eyes(linked, diag), tuple(eyes), slimmed, linked


def _trace(witness, eyes, slimmed, linked):
    """The `PipelineTrace` of a step from `_decompose_step`, its hull and
    cut kept undrawn until first read (see `_draw`).

    The step's hull is grown, closed and cut here, at once, by
    `_hull_path`; the cut must give the step's witness on the slim
    lattice, `linked`.  Nothing is validated again: the step has
    validated the witness it returns."""
    hull, cut, found = _hull_path(slimmed)
    if found != linked:
        raise AssertionFailed(
            "the hull path and the closed form give different witnesses")
    trace = PipelineTrace(eyes, None, None, cut is None)
    trace._drawn, trace._undrawn = None, (slimmed, hull, cut)
    return trace


def _draw(slimmed, hull, cut):
    """The extension steps and the cut of a step: its hull (None for a
    rectangular slim diagram) labelled and drawn from the step tuples, and
    the cut (x, pivot, chain, mode) on the drawn hull."""
    rect, extension_steps = (slimmed, []) if hull is None else hull.draw()
    if cut is not None:
        x, pivot, chain, mode = cut
        cut = DecompositionCut(x, pivot, rect, chain, mode)
    return tuple(extension_steps), cut


def _same_part(diag, parent, members):
    """Whether `diag`, whose labels are those of `members` in `parent`,
    is the part of `parent` on the ascending ids `members`, as `subdiagram`
    would build it: the same x coordinates and the same covers, which for
    a part that inherits the parent's covers (any `subdiagram` that
    succeeds) are the parent's covers among the members.  Read off the
    parent's cover lists, with no closure."""
    xs = parent.xcoord
    if diag.xcoord != tuple([xs[v] for v in members]):
        return False
    pos = dict(zip(members, range(len(members))))
    upper = parent.lattice.upper_covers
    return all(ws == tuple([pos[w] for w in upper[v] if w in pos])
               for v, ws in zip(members, diag.lattice.upper_covers))


def _decompose(root):
    """Post-order walk with an explicit stack, so the depth of the tree is
    not bounded by the interpreter's recursion limit.  Returns the tree and
    the root's trace.

    The ideal and filter parts of a node overlap, so the walk reaches the
    same interval of the root again and again.  `built` keeps the subtree of
    each interval, keyed by its labels, and a repeat gets the same object.
    A part is looked up by its labels in its parent before its diagram is
    built, and only a miss builds it.  A node is an interval of the root
    kept in ascending root-id order, so equal labels mean an equal diagram;
    each hit is confirmed anyway (`_same_part`).
    """
    built = {}
    finished = []  # each finished subtree whose parent is open
    root_trace = None
    # (diagram, None): decompose it; (parent, ids): look up or build the
    # part of the parent on those ids; (diagram, witness): glue
    stack = [(root, None)]
    while stack:
        diag, todo = stack.pop()
        if isinstance(todo, frozenset):
            members = sorted(todo)
            names = diag.lattice.names
            node = built.get(tuple([names[v] for v in members]))
            if node is not None and _same_part(node.diagram, diag, members):
                finished.append(node)
                continue
            diag, todo = subdiagram(diag, members), None
        if todo is None:
            step = _decompose_step(diag)
            if root_trace is None:
                root_trace = (PipelineTrace((), (), None, False) if step is None
                              else _trace(*step))
            if step is not None:
                witness = step[0]
                stack += [(diag, witness), (diag, witness.B), (diag, witness.A)]
                continue
            node = DecompLeaf(diag)
        else:
            right = finished.pop()
            left = finished.pop()
            node = DecompGlue(left, right, len(todo.C), todo, diag)
        built[diag.lattice.names] = node
        finished.append(node)
    return finished.pop(), root_trace


def decompose(diag):
    """Decompose a planar semimodular diagram into a certificate tree.

    Returns the tree and the trace of the top-level step.  Each distinct
    interval is decomposed once: in memory, equal subtrees of the returned
    certificate are one shared object.  Documents and `sequence_of` still
    see every occurrence; `verify_tree` checks each object once.
    """
    if diag.lattice.n <= 1:
        raise NoDecomposition("nothing to decompose in a one-element lattice")
    violation = validate_diagram(diag)
    if violation is not None:
        raise NoDecomposition(f"input drawing is invalid: {violation.detail}")
    if not is_semimodular(diag.lattice):
        raise NotSemimodular("decomposition requires a semimodular lattice")
    return _decompose(diag)


# -- verification --------------------------------------------------------------

def _labeled_covers(lat):
    names = lat.names
    return {(names[a], names[b]) for a, b in lat.covers}


def _verify_node(node, path):
    """The first violated clause of this node on its own, or None."""
    if isinstance(node, DecompLeaf):
        if not is_patch(node.diagram):
            return TreeViolation(path, "leaf_patch",
                                 f"{node.diagram.lattice!r} is not a patch lattice")
        return None
    w = node.witness
    amb = node.diagram.lattice
    if w.ambient != amb:
        return TreeViolation(path, "witness_ambient",
                             "witness does not live on the node's lattice")
    reason = validate_witness(w)
    if reason is not None:
        return TreeViolation(path, "witness_valid", reason)
    a_labels, b_labels, c_labels = w.labels()
    if set(a_labels) != set(node.left.diagram.lattice.names):
        return TreeViolation(path, "parts_match",
                             "ideal part does not match the left child")
    if set(b_labels) != set(node.right.diagram.lattice.names):
        return TreeViolation(path, "parts_match",
                             "filter part does not match the right child")
    if node.chain_size != len(c_labels):
        return TreeViolation(path, "chain_size",
                             f"recorded {node.chain_size}, actual {len(c_labels)}")
    # a valid witness puts every cover of the node inside A or inside B
    # (a ≤ b across the parts passes a ∨ (b ∧ c) ∈ C for any c ∈ C), so the
    # children, which carry the node's labels, must split its covers exactly
    reglued = (_labeled_covers(node.left.diagram.lattice)
               | _labeled_covers(node.right.diagram.lattice))
    if reglued != _labeled_covers(amb):
        return TreeViolation(path, "reglue",
                             "the children's covers do not rebuild the node")
    return None


def verify_tree(tree, diag):
    """Re-check every certificate clause from scratch; None when the tree is
    a valid decomposition of the given diagram, else the first violation.

    Nodes are checked in pre-order (a node, then its left subtree, then its
    right one) on an explicit stack, so the depth of the tree is not bounded
    by the interpreter's recursion limit.  A subtree shared in memory (see
    `decompose`) is checked once, at its first occurrence, keyed by object
    identity: checking it again would give the same answer, so the first
    violation and its path stay the same."""
    checked = set()  # ids of passed nodes, all kept alive by `tree`
    stack = [(tree, "root")]
    while stack:
        node, path = stack.pop()
        if id(node) in checked:
            continue
        checked.add(id(node))
        bad = _verify_node(node, path)
        if bad is not None:
            return bad
        if not isinstance(node, DecompLeaf):
            stack += [(node.right, f"{path}.right"), (node.left, f"{path}.left")]
    root, given = tree.diagram.lattice, diag.lattice
    # with equal labels and labeled covers, the label identity is the
    # isomorphism; only a relabeled input needs the search
    same_labels = (set(root.names) == set(given.names)
                   and _labeled_covers(root) == _labeled_covers(given))
    if not same_labels and is_isomorphic(root, given) is None:
        return TreeViolation("root", "root_isomorphism",
                             "tree root is not isomorphic to the input")
    return None


def sequence_of(tree):
    """Post-order linearization L_1 .. L_n (root last).

    Returns the diagrams and a map {i: (j, k)} giving, for every glued
    entry, the 1-based indices of its ideal and filter parts.  The walk
    keeps an explicit stack, so the depth of the tree is not bounded by
    the interpreter's recursion limit.
    """
    entries = []
    parts = {}
    finished = []  # the index of each finished subtree whose parent is open
    stack = [(tree, False)]
    while stack:
        node, opened = stack.pop()
        if isinstance(node, DecompLeaf):
            entries.append(node.diagram)
            finished.append(len(entries))
        elif not opened:
            stack += [(node, True), (node.right, False), (node.left, False)]
        else:
            k = finished.pop()
            j = finished.pop()
            entries.append(node.diagram)
            parts[len(entries)] = (j, k)
            finished.append(len(entries))
    return entries, parts
