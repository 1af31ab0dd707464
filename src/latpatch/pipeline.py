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
from .diagram import (Diagram, _patch, _scaled_points, _walk, is_patch, slim,
                      validate_diagram)
from .errors import (AssertionFailed, NoDecomposition, NotSemimodular,
                     SizeBoundExceeded)
from .ops import (DecompositionCut, GluingWitness, _choose, _cut, _drawn_hull,
                  _Hull, _link_cut, _principal, _pull_back, validate_witness)


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

    The trace `decompose` returns holds the root's slim diagram, the final
    chains and cascades of its run of the site process and its cut, in the
    slim hull's ids, and no hull (see `_trace`): the hull is drawn from the
    run's cascades when `extension_steps` or `cut` is first read, and both
    are then kept.  A rectangular root's run has no cascade, and its hull
    is drawn like any other.  `_step_count` counts the steps without
    drawing.  Traces compare and print by their four fields; they are
    unhashable, like the drawn hull their cut holds."""

    __slots__ = ("eyes", "fallback_used", "_drawn", "_undrawn")

    def __init__(self, eyes, extension_steps, cut, fallback_used):
        self.eyes = eyes
        self.fallback_used = fallback_used
        self._drawn = extension_steps, cut
        self._undrawn = None  # (slimmed, run, cut) to draw while `_drawn` is None

    def _draw(self):
        if self._drawn is None:
            self._drawn, self._undrawn = _draw(*self._undrawn), None
        return self._drawn

    def _step_count(self):
        """len(extension_steps), read off the undrawn run while there is
        one: a cascade's segment c_j, …, c_{i+2} holds its steps and two
        more (`ops._cascades`)."""
        if self._drawn is not None:
            return len(self._drawn[0])
        return sum([len(seg) - 2 for _, seg in self._undrawn[1][1]])

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

def _ends(witness, ids):
    """(a, b) for a valid witness (↓a, ↑b): a the highest member of its A
    and b the lowest of its B, carried to other ids by `ids`, the other id
    of each id of the witness's ambient."""
    height = witness.ambient.height.__getitem__
    return ids[max(witness.A, key=height)], ids[min(witness.B, key=height)]


def _chain_witness(lat):
    """The closed-form witness (↓c, ↑c) of a chain with n ≥ 3 elements, c
    at height min(2, n - 2), unchecked; None for any other lattice.

    A chain 0 = c_0 ≺ c_1 ≺ … ≺ c_{n-1} = 1 with n ≥ 3 (n elements and
    n - 1 covers) gets this witness with no site process run.  It is the
    one `_link_cut` gives, which the trace of a chain root checks
    (`_trace`):
    - Hull.  Both boundary chains are the input, and the left one is
      scanned first.  With t_0 = 0, the site at position i is
      t_i ≺ c_{i+1} ≺ c_{i+2}; it adds t_{i+1} with t_i ≺ t_{i+1} ≺ c_{i+2}
      in place of c_{i+1}, which gives t_i and c_{i+2} a second cover, so
      the next site is at i + 1.  After t_{n-2} no site is left, and the
      hull is the 2 × (n - 1) grid: its left chain is 0, t_1, …, t_{n-2}, 1
      and its right chain the input.
    - Corners.  u_l = t_{n-2} is a dual atom and u_r = c_1, so `_choose`
      picks mirrored mode with x = c_2, the right chain's cover of u_r.
    - Cut and links.  The pivot is x ∧ u_l = t_1, whose link hi is its c,
      c_2; x is an input element.  So the witness is (↓c_2, ↑c_2).
    - n = 3.  The hull {0, c_1, t_1, 1} is a patch, which gives
      (↓c_1, ↑c_1).
    """
    if lat.n < 3 or len(lat.covers) != lat.n - 1:
        return None
    c = lat.upper_covers[lat.bottom][0]
    if lat.n > 3:
        c = lat.upper_covers[c][0]
    return _principal(lat, c, c)


def _step(diag):
    """The witness of a node, validated once, and what `ops._link_cut`
    found for it (None for a chain); None for a patch.  A chain takes its
    closed form (`_chain_witness`), and any other node, the root included,
    the link cut of its own diagram, eyes and all: `_link_cut` reads on it
    the witness that the slim diagram's cut, lifted, gives (see the eyes
    in its docstring).  So no node is slimmed to be cut, and no witness is
    lifted; the root's trace checks the root's cut on its slim hull."""
    witness, found = _chain_witness(diag.lattice), None
    if witness is None:
        if is_patch(diag):
            return None
        found = _link_cut(diag)
        witness = found[2]
    reason = validate_witness(witness)
    if reason is not None:
        raise AssertionFailed(f"the cut of a node gave an invalid witness: {reason}")
    return witness, found


def _trace(root, step):
    """The `PipelineTrace` of the root's step from `_step`, its hull drawn
    when first read (see `_draw`).

    The root's check runs here, at once, on its slim diagram S.  A chain
    root, which has no eyes, gets its link cut here, which must give its
    closed-form witness.  Any other root L was cut eyes and all, and its
    run and cut are S's element for element (see the eyes in
    `ops._link_cut`): with eyes they are carried to S's ids by label, an
    added id shifting by S.n − L.n, and the witness is restricted to S
    (`ops._pull_back`, which validates it).  The hull is grown from the
    run (S itself for a rectangular root, whose run has no cascade),
    closed, and cut on its masks by `ops._choose` and `ops._cut`; that
    cut's (x, pivot) must be the link cut's, and its witness (↓x, ↑pivot)
    on the hull's first n ids, S's, the restricted one.  A hull the link
    cut found a patch must be one on its masks.  The trace then keeps the
    run's final chains and cascades, not the hull."""
    if step is None:
        return PipelineTrace((), (), None, False)
    witness, found = step
    slimmed, eyes = slim(root)
    eyes = tuple(eyes)  # not after the hull, whose freed memory it kept resident
    if found is None:
        found = _link_cut(root)
        if found[2] != witness:
            raise AssertionFailed(
                "the link cut and the closed form give different witnesses")
    (chains, *_, cascades), linked_cut, _ = found
    lat = slimmed.lattice
    if eyes:
        witness = _pull_back(witness, lat)
        names, index, shift = root.lattice.names, lat.index, lat.n - root.lattice.n

        def carried(ids):
            out = [index.get(names[v]) if v < len(names) else v + shift for v in ids]
            if None in out:
                raise AssertionFailed("the root's run or cut holds an eye")
            return out

        chains = [carried(chain) for chain in chains]
        cascades = [(side, carried(seg)) for side, seg in cascades]
        if linked_cut is not None:
            linked_cut = tuple(carried(linked_cut))
    hull = _Hull(slimmed, chains, cascades)
    b = hull.close()
    cut = None
    if linked_cut is None:
        if not _patch(hull, b):
            raise AssertionFailed("the link cut found a patch hull that is none")
    else:
        x, mode = _choose(hull, b)
        pivot, chain = _cut(hull, b, x, mode)
        down, up = hull.down[x] & lat.full_mask, hull.up[pivot] & lat.full_mask
        masked = (frozenset(iter_bits(m)) for m in (down, up, down & up))
        if (x, pivot) != linked_cut or GluingWitness(lat, *masked) != witness:
            raise AssertionFailed(
                "the hull cut and the link cut give different witnesses")
        cut = x, pivot, chain, mode
    trace = PipelineTrace(eyes, None, None, cut is None)
    trace._drawn, trace._undrawn = None, (slimmed, (chains, cascades), cut)
    return trace


def _draw(slimmed, run, cut):
    """The extension steps and the cut of the root: its hull drawn from the
    run's cascades (`ops._drawn_hull`), and the cut (x, pivot, chain, mode)
    on the drawn hull."""
    rect, extension_steps = _drawn_hull(slimmed, run[1])
    if cut is not None:
        x, pivot, chain, mode = cut
        cut = DecompositionCut(x, pivot, rect, chain, mode)
    return tuple(extension_steps), cut


def _decompose(root):
    """Post-order walk with an explicit stack, so the depth of the tree is
    not bounded by the interpreter's recursion limit.  Returns the tree and
    the root's trace.

    A node is an interval [y, x] of the root, named by its ends in root
    ids; the root is [bottom, top].  The parts of a glue (↓a, ↑b) of
    [y, x] are [y, a] and [b, x]: an interval of an interval is an interval
    of the root.  a and b are read on the node and carried to root ids
    through its member list (`_ends`).  A part is cut from the root by
    `Lattice._derived` on the root ids in ↑y ∩ ↓x, with the root's x
    coordinates.  Its parent's ids are its members' root ids in ascending
    order and its covers the root's covers among them, and `_derived` keeps
    relative id order and ambient covers, so this is the part its parent
    would give (`subdiagram`).  The root is scaled to integer points once
    (`_scaled_points`), and a node that walks its boundary (no chain, more
    than two elements), as `_step` does on every such node, gets its walk
    on its members' root points here, which differ from its own scaled
    points by a positive scale and a height shift (see the boundary
    section of `diagram`).  The parts of a node overlap, so the walk
    reaches an interval again and again: `built` keeps each interval's
    subtree, keyed by its ends, and a repeat gets the same object.  Every
    interval, the root included, is cut by `_step`; the root's step also
    makes its trace (`_trace`).
    """
    lat, xs = root.lattice, root.xcoord
    points = _scaled_points(xs, lat.height)
    built = {}
    finished = []  # each finished subtree whose parent is open
    root_trace = None
    # (y, x, None): look up or cut and decompose [y, x]; (y, x, (diagram,
    # witness)): glue the two finished parts of [y, x]
    stack = [(lat.bottom, lat.top, None)]
    while stack:
        y, x, todo = stack.pop()
        if todo is None:
            node = built.get((y, x))
            if node is not None:
                finished.append(node)
                continue
            if root_trace is None:  # the root, popped first
                diag, members = root, range(lat.n)
            else:
                members = iter_bits(lat.up[y] & lat.down[x])
                part = lat._derived(members, y, x)
                diag = Diagram(part, [xs[v] for v in members])
                if part.n > 2 and len(part.covers) != part.n - 1:  # it walks
                    diag.boundary = _walk(part, [points[v] for v in members])
            step = _step(diag)
            if root_trace is None:
                root_trace = _trace(root, step)
            if step is not None:
                witness = step[0]
                a, b = _ends(witness, members)
                stack += [(y, x, (diag, witness)), (b, x, None), (y, a, None)]
                continue
            node = DecompLeaf(diag)
        else:
            diag, witness = todo
            right = finished.pop()
            left = finished.pop()
            node = DecompGlue(left, right, len(witness.C), witness, diag)
        built[y, x] = node
        finished.append(node)
    return finished.pop(), root_trace


def decompose(diag):
    """Decompose a planar semimodular diagram into a certificate tree.

    Returns the tree and the trace of the top-level step.  Every node is an
    interval of the input, cut from it by its ends, and each distinct
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
    names = amb.names
    left = node.left.diagram.lattice
    if {names[v] for v in w.A} != set(left.names):
        return TreeViolation(path, "parts_match",
                             "ideal part does not match the left child")
    right = node.right.diagram.lattice
    if {names[v] for v in w.B} != set(right.names):
        return TreeViolation(path, "parts_match",
                             "filter part does not match the right child")
    if node.chain_size != len(w.C):
        return TreeViolation(path, "chain_size",
                             f"recorded {node.chain_size}, actual {len(w.C)}")
    # a valid witness puts every cover of the node inside A or inside B
    # (a ≤ b across the parts passes a ∨ (b ∧ c) ∈ C for any c ∈ C), so the
    # children, which carry the node's labels, must split its covers
    # exactly.  `parts_match` has put every child label in the node, and
    # labels name node ids one to one, so the covers compare in node ids
    reglued = set()
    for child in (left, right):
        ids = [amb.index[name] for name in child.names]
        reglued.update([(ids[a], ids[b]) for a, b in child.covers])
    if reglued != set(amb.covers):
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
