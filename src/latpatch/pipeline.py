"""End-to-end decomposition into patch lattices glued over chains.

`decompose` produces a certificate tree whose leaves are patch lattices
and whose inner nodes carry (ideal, filter, chain) witnesses; `verify_tree`
re-checks such a tree from scratch; `brute_force_gluing_search` is the
independent oracle that looks for a witness by exhaustive enumeration.
"""

from dataclasses import dataclass
from typing import Optional

from .core import Lattice, classify_subset, is_isomorphic, is_semimodular, iter_bits
from .diagram import (Diagram, is_patch, is_rectangular, slim, subdiagram,
                      validate_diagram)
from .errors import (ImproperWitness, NoDecomposition, NotSemimodular,
                     SizeBoundExceeded)
from .ops import (DecompositionCut, GluingWitness, _restrict_valid, choose_x,
                  decompose_at, rectangularize, validate_witness,
                  witness_from_cut)


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


@dataclass(frozen=True)
class PipelineTrace:
    """Artifacts of the top-level decomposition step, for replay checks."""
    eyes: tuple
    extension_steps: tuple
    cut: Optional[DecompositionCut]
    fallback_used: bool
    slim_diagram: Optional[Diagram]
    rectangular_diagram: Optional[Diagram]


@dataclass(frozen=True)
class TreeViolation:
    path: str
    clause: str
    detail: str


# -- the independent oracle -------------------------------------------------

def _downsets(order, need):
    """All downset bitmasks: walk a linear extension, including an element
    only once everything it requires is already in.  Excluding an element
    silently forbids all elements above it."""
    out = []

    def extend(i, mask):
        if i == len(order):
            out.append(mask)
            return
        extend(i + 1, mask)
        v = order[i]
        if need[v] & ~mask == 0:
            extend(i + 1, mask | (1 << v))

    extend(0, 0)
    return out


def _enumerate_ideals(lat, dual=False):
    """Nonempty join-closed downsets (or meet-closed upsets when dual)."""
    n = lat.n
    order = sorted(range(n), key=lambda v: lat.height[v])
    if dual:
        order.reverse()
        need = [lat.mask_of(lat.upper_covers[v]) for v in range(n)]
        bounds = lat.meet
    else:
        need = [lat.mask_of(lat.lower_covers[v]) for v in range(n)]
        bounds = lat.join
    table = tuple(bounds[v] for v in range(n))  # the loop below indexes a tuple
    found = []
    for mask in _downsets(order, need):
        if not mask:
            continue
        members = list(iter_bits(mask))
        closed = True
        for i, a in enumerate(members):
            row = table[a]
            for b in members[i + 1:]:
                if not mask >> row[b] & 1:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            found.append((bin(mask).count("1"), tuple(members), mask))
    found.sort()
    return found


def brute_force_gluing_search(diag, bound=14):
    """First proper witness (ideal, filter, nonempty chain overlap) found by
    exhaustive enumeration, smallest ideal first; None when there is none.

    Pass bound=None to lift the size gate (the pipeline's fallback does).
    """
    lat = diag.lattice
    if bound is not None and lat.n > bound:
        raise SizeBoundExceeded(f"{lat.n} elements exceeds the oracle bound {bound}")
    full = lat.full_mask
    ideals = _enumerate_ideals(lat)
    filters = _enumerate_ideals(lat, dual=True)
    for _, a_members, a_mask in ideals:
        if a_mask == full:
            continue
        for _, b_members, b_mask in filters:
            if b_mask == full or a_mask | b_mask != full:
                continue
            c_mask = a_mask & b_mask
            if not c_mask:
                continue
            c_members = list(iter_bits(c_mask))
            if classify_subset(lat, c_members).is_chain:
                return GluingWitness(lat, frozenset(a_members),
                                     frozenset(b_members), frozenset(c_members))
    return None


# -- decomposition ------------------------------------------------------------

def _lift_through_eyes(witness, slim_diag, eyes, full_diag):
    """Re-add removed eyes to a witness for the slimmed lattice: an eye
    follows its upper cover into A and its lower cover into B."""
    a_labels = set(slim_diag.lattice.labels(witness.A))
    b_labels = set(slim_diag.lattice.labels(witness.B))
    for rec in eyes:  # anchors are never eyes, so order does not matter
        if rec.upper in a_labels:
            a_labels.add(rec.label)
        if rec.lower in b_labels:
            b_labels.add(rec.label)
    lat = full_diag.lattice
    lifted = GluingWitness(
        lat,
        frozenset(lat.id_of(x) for x in a_labels),
        frozenset(lat.id_of(x) for x in b_labels),
        frozenset(lat.id_of(x) for x in a_labels & b_labels))
    reason = validate_witness(lifted)
    if reason is not None:
        raise NoDecomposition(f"eye lifting produced an invalid witness: {reason}")
    return lifted


def _decompose_step(diag):
    """One decomposition step: None for a patch, else (witness, trace)."""
    if is_patch(diag):
        return None
    slimmed, eyes = slim(diag)
    if is_rectangular(slimmed):
        rect, steps = slimmed, []
    else:
        rect, steps = rectangularize(slimmed)
    if steps and is_patch(rect):
        # the extension collapsed to a patch although the slim lattice was
        # not rectangular (e.g. a chain): fall back to exhaustive search
        witness = brute_force_gluing_search(slimmed, bound=None)
        if witness is None:
            raise NoDecomposition(
                f"no proper chain gluing of the {slimmed.lattice.n}-element "
                f"slim lattice exists")
        cut = None
        fallback = True
    else:
        x, mode = choose_x(rect)
        cut = decompose_at(rect, x, mode)
        witness = witness_from_cut(cut)
        if steps:
            # pulled back like restrict_gluing, but each witness is checked
            # once: the cut's here, every restricted one as it is made
            reason = validate_witness(witness)
            if reason is not None:
                raise ImproperWitness(reason)
        for step in reversed(steps):
            witness = _restrict_valid(witness, step)
        fallback = False
    lifted = _lift_through_eyes(witness, slimmed, eyes, diag)
    trace = PipelineTrace(tuple(eyes), tuple(steps), cut, fallback, slimmed, rect)
    return lifted, trace


def _decompose(diag):
    step = _decompose_step(diag)
    if step is None:
        leaf = DecompLeaf(diag)
        trace = PipelineTrace((), (), None, False, None, None)
        return leaf, trace
    witness, trace = step
    left = subdiagram(diag, witness.A)
    right = subdiagram(diag, witness.B)
    left_tree, _ = _decompose(left)
    right_tree, _ = _decompose(right)
    node = DecompGlue(left_tree, right_tree, len(witness.C), witness, diag)
    return node, trace


def decompose(diag):
    """Decompose a planar semimodular diagram into a certificate tree.

    Returns the tree and the trace of the top-level step.
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

def _reglue_labels(left_lat, right_lat):
    covers = [(left_lat.names[a], left_lat.names[b]) for a, b in left_lat.covers]
    covers += [(right_lat.names[a], right_lat.names[b]) for a, b in right_lat.covers]
    elements = list(left_lat.names)
    elements += [n for n in right_lat.names if n not in left_lat.index]
    return Lattice(covers, elements=elements)


def _verify_node(node, path):
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
    try:
        reglued = _reglue_labels(node.left.diagram.lattice,
                                 node.right.diagram.lattice)
    except Exception as exc:
        return TreeViolation(path, "reglue", f"gluing the children failed: {exc}")
    if is_isomorphic(reglued, amb) is None:
        return TreeViolation(path, "reglue",
                             "gluing the children does not rebuild the node")
    for child, tag in ((node.left, "left"), (node.right, "right")):
        bad = _verify_node(child, f"{path}.{tag}")
        if bad is not None:
            return bad
    return None


def verify_tree(tree, diag):
    """Re-check every certificate clause from scratch; None when the tree is
    a valid decomposition of the given diagram, else the first violation."""
    bad = _verify_node(tree, "root")
    if bad is not None:
        return bad
    if is_isomorphic(tree.diagram.lattice, diag.lattice) is None:
        return TreeViolation("root", "root_isomorphism",
                             "tree root is not isomorphic to the input")
    return None


def sequence_of(tree):
    """Post-order linearization L_1 .. L_n (root last).

    Returns the diagrams and a map {i: (j, k)} giving, for every glued
    entry, the 1-based indices of its ideal and filter parts.
    """
    entries = []
    parts = {}

    def walk(node):
        if isinstance(node, DecompLeaf):
            entries.append(node.diagram)
            return len(entries)
        j = walk(node.left)
        k = walk(node.right)
        entries.append(node.diagram)
        i = len(entries)
        parts[i] = (j, k)
        return i

    walk(tree)
    return entries, parts
