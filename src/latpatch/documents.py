"""JSON documents for diagrams and decomposition trees, plus DOT export.

Rationals are serialized as strings in lowest terms, and parsing accepts
only that canonical text, so round trips are bit-exact; a document without
an embedding gets one synthesized.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .core import Lattice
from .diagram import Diagram, validate_diagram, synthesize_embedding
from .errors import (CycleDetected, EmbeddingFailed, SchemaError, SizeBoundExceeded,
                     TreeTooDeep)
from .ops import GluingWitness
from .pipeline import DecompGlue, DecompLeaf


def _format_rational(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_rational(text, path):
    if not isinstance(text, str):
        raise SchemaError(path, f"not a rational: {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(path, f"not a rational: {text!r}")
    if _format_rational(value) != text:
        raise SchemaError(path, f"not a rational in canonical form: {text!r}")
    return value


def _members(items, indent, brackets):
    """A JSON list or object whose members are already written, laid out as
    `json.dumps(..., indent=2)` lays it out with its members at `indent`."""
    if not items:
        return brackets
    sep = ",\n" + indent
    return f"{brackets[0]}\n{indent}{sep.join(items)}\n{indent[:-2]}{brackets[1]}"


_COVER = "[\n      %d,\n      %d\n    ]"  # one cover pair of a `covers` list


def _lattice_text(diag, meta="{}"):
    """The `lattice` object of a diagram's document at zero indent, the text
    `json.dumps(..., sort_keys=True, indent=2)` writes for it; `meta` is the
    already indented text of the `meta` value.  Labels must be strings."""
    lat = diag.lattice
    names = lat.names
    labels = list(map(encode_basestring_ascii, names))
    xs = diag.xcoord
    covers = _members(list(map(_COVER.__mod__, lat.covers)), "    ", "[]")
    embedding = _members([f'{labels[v]}: "{_format_rational(xs[v])}"'
                          for v in sorted(range(lat.n), key=names.__getitem__)],
                         "    ", "{}")
    return (f'{{\n  "covers": {covers},\n  "elements": {_members(labels, "    ", "[]")},'
            f'\n  "embedding": {embedding},\n  "meta": {meta}\n}}')


def serialize(diag, meta=None):
    """Serialize a diagram; keys sorted, rationals in lowest terms."""
    text = json.dumps(dict(meta), sort_keys=True, indent=2) if meta else "{}"
    return _lattice_text(diag, text.replace("\n", "\n  ")) + "\n"


def _derived_child(parent, elements, covers, embedding):
    """The diagram of a tree node derived from its parent node's, or None.

    `parent` is the parent's parsed diagram and raw embedding; `elements`,
    `covers` and `embedding` are the node's raw JSON values, read before
    any schema check.  A node is derived when `elements` is a list of
    parent labels in ascending parent-id order forming an interval [y, x],
    every coordinate is the parent's text for that label, `covers` lists
    exactly the interval's covers as `[lower, upper]` lists of ints
    (`type(..) is int`, so `true` and `1.0` never match) in the sorted order
    `serialize_tree` writes, and the heights the interval recomputes are
    the parent's minus one constant.

    A match implies every schema fact the full parse checks: the labels
    are distinct strings, the covers are in-range index pairs and every
    coordinate is canonical, as it is in the validated parent.  An interval
    of a lattice is a lattice with exactly those covers, and the drawing is
    then a vertical translate of part of the parent's validated drawing, so
    no points coincide, every edge rises and no edges meet: parsing it in
    full would give the same diagram.  Anything else gives None, and the
    full parse then reports the node's first error, or accepts it.
    """
    pdiag, pembedding = parent
    if (pembedding is None or type(embedding) is not dict or type(elements) is not list
            or not elements or type(covers) is not list):
        return None
    plat = pdiag.lattice
    index = plat.index
    members = []
    last = -1
    mask = 0
    for name in elements:
        if type(name) is not str:
            return None
        v = index.get(name)
        if v is None or v <= last or embedding.get(name) != pembedding[name]:
            return None
        members.append(v)
        mask |= 1 << v
        last = v
    ends = plat._interval_ends(members, mask)
    if ends is None:
        return None
    lat = plat._derived(members, *ends)
    if len(covers) != len(lat.covers):
        return None
    for entry, pair in zip(covers, lat.covers):
        if type(entry) is not list or len(entry) != 2:
            return None
        a, b = entry
        if type(a) is not int or type(b) is not int or (a, b) != pair:
            return None
    heights = plat.height
    shift = heights[ends[0]]
    if tuple([heights[v] - shift for v in members]) != lat.height:
        return None
    xs = pdiag.xcoord
    return Diagram(lat, [xs[v] for v in members])


def _diagram_from_dict(doc, path, max_synth=16, parent=None):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    if parent is not None and isinstance(doc.get("meta", {}), dict):
        diag = _derived_child(parent, doc.get("elements"), doc.get("covers"),
                              doc.get("embedding"))
        if diag is not None:
            return diag
    elements = doc.get("elements")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise SchemaError(f"{path}.elements", "expected a list of strings")
    if len(set(elements)) != len(elements):
        raise SchemaError(f"{path}.elements", "duplicate labels")
    covers = doc.get("covers")
    if not isinstance(covers, list):
        raise SchemaError(f"{path}.covers", "expected a list of index pairs")
    pairs = []
    for k, entry in enumerate(covers):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(type(i) is int for i in entry)):
            raise SchemaError(f"{path}.covers[{k}]", "expected [lower, upper]")
        a, b = entry
        if not (0 <= a < len(elements) and 0 <= b < len(elements)):
            raise SchemaError(f"{path}.covers[{k}]", "index out of range")
        pairs.append((a, b))
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError(f"{path}.meta", "expected an object")
    embedding = doc.get("embedding")
    try:
        lat = Lattice([(elements[a], elements[b]) for a, b in pairs], elements=elements)
    except CycleDetected as exc:
        raise SchemaError(f"{path}.covers", f"cycle: {exc}")
    if embedding is None:
        try:
            diag = synthesize_embedding(lat, max_size=max_synth)
        except SizeBoundExceeded as exc:
            raise EmbeddingFailed(str(exc), lattice=lat)
        if diag is None:
            raise EmbeddingFailed(
                f"no planar drawing exists for the {lat.n}-element lattice",
                lattice=lat)
        return diag
    if not isinstance(embedding, dict):
        raise SchemaError(f"{path}.embedding", "expected an object")
    xs = []
    for name in lat.names:
        if name not in embedding:
            raise SchemaError(f"{path}.embedding.{name}", "missing coordinate")
        xs.append(_parse_rational(embedding[name], f"{path}.embedding.{name}"))
    diag = Diagram(lat, xs)
    violation = validate_diagram(diag)
    if violation is not None:
        raise SchemaError(f"{path}.embedding", violation.detail)
    return diag


def _load_json(text):
    """The JSON value of `text`.  Malformed JSON, an integer longer than
    `int` converts (4300 digits by default; a plain `ValueError`, where a
    syntax error is a `json.JSONDecodeError`), and a document nested
    deeper than `json.loads` takes (its limit varies with the Python
    version), are a `SchemaError` at `$`.

    `json.loads` nests less deeply the deeper its caller's stack is, so a
    `RecursionError` gets one more try in a new thread, whose stack starts
    empty: how deep a document may nest does not depend on the caller."""
    try:
        try:
            return json.loads(text)
        except RecursionError:
            # imported here, not at the top: `concurrent.futures` loads
            # `logging` and a dozen more modules, 0.5 MB of resident memory
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=1) as pool:
                return pool.submit(json.loads, text).result()
    except ValueError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}")
    except RecursionError:
        raise SchemaError("$", "document nests too deeply") from None


def parse_document(text, max_synth=16):
    """Parse a diagram document; inverse of `serialize`.  Errors in the
    JSON itself are reported as by `_load_json`."""
    return _diagram_from_dict(_load_json(text), "$", max_synth=max_synth)


# -- decomposition trees -------------------------------------------------

# The most levels a tree document may have, counting the root as one.  Each
# level nests two JSON values (a node in `children`), and on Python 3.10 and
# 3.11 `json.loads` reads at most 494 levels of a minimal tree document at
# the top of a script and 475 inside a pytest test (3.12.1 reads 747, 3.13.0
# 4998).  The bound keeps every certificate the writer accepts readable on
# every supported version, from any caller depth (see `_load_json`); the
# n-element chain's certificate has n/2 + 1 levels.
MAX_TREE_DEPTH = 460


def _tree_chunks(tree):
    """The text of a tree's document, in chunks.

    A first walk counts how often each node object occurs (`decompose`
    shares equal subtrees) and measures the depth; a tree deeper than
    `MAX_TREE_DEPTH` raises `TreeTooDeep` before anything is yielded.  The
    second walk keeps `(node, pad, head)` entries on an explicit stack:
    `head` is the text before the node, or None for a glue node's closing
    entry.  A glue node's keys sort as chain, children, kind, lattice, so
    its lattice text is built when its closing entry is popped; a node's
    text is kept from its first occurrence to its last and no longer."""
    counts = {}
    depth = 0
    stack = [(tree, 1)]
    while stack:
        node, level = stack.pop()
        counts[id(node)] = counts.get(id(node), 0) + 1
        depth = max(depth, level)
        if isinstance(node, DecompGlue):
            stack += [(node.right, level + 1), (node.left, level + 1)]
    if depth > MAX_TREE_DEPTH:
        raise TreeTooDeep(f"the decomposition tree has {depth} levels; a tree "
                          f"document holds at most {MAX_TREE_DEPTH}")

    kept = {}

    def lattice_text(node, pad):
        key = id(node)
        text = kept.pop(key, None) or _lattice_text(node.diagram)
        counts[key] -= 1
        if counts[key]:
            kept[key] = text
        return text.replace("\n", "\n" + pad)

    stack = [(tree, "", "")]
    while stack:
        node, pad, head = stack.pop()
        inner = pad + "  "
        if head is None:
            yield f'\n{inner}],\n{inner}"kind": "glue",\n{inner}"lattice": '
            yield lattice_text(node, inner)
            yield "\n" + pad + "}"
        elif isinstance(node, DecompLeaf):
            yield f'{head}{{\n{inner}"kind": "leaf",\n{inner}"lattice": '
            yield lattice_text(node, inner)
            yield "\n" + pad + "}"
        else:
            chain = node.diagram.lattice.labels(node.witness.C)
            chain = _members([encode_basestring_ascii(name) for name in chain],
                             inner + "  ", "[]")
            yield f'{head}{{\n{inner}"chain": {chain},\n{inner}"children": ['
            child = inner + "  "
            stack += [(node, pad, None), (node.right, child, ",\n" + child),
                      (node.left, child, "\n" + child)]
    yield "\n"


def serialize_tree(tree):
    """The tree document of a decomposition tree; every occurrence of a
    shared subtree is written in full.  Raises `TreeTooDeep` past
    `MAX_TREE_DEPTH` levels."""
    return "".join(_tree_chunks(tree))


def _tree_from_dict(doc, path, max_synth=16):
    """The tree of a parsed tree document, walked post-order on an explicit
    stack as in `pipeline._decompose`.  The checks run in a recursive walk's
    order: a node, its left subtree, its right one, then the node's parts.
    A node deeper than `MAX_TREE_DEPTH` levels is a `SchemaError`, also where
    `json.loads` has read the document."""
    finished = []  # each finished subtree whose parent is open
    stack = [(doc, path, 1, None, None)]
    while stack:
        doc, path, level, parent, glue = stack.pop()
        if glue is not None:
            right = finished.pop()
            left = finished.pop()
            diag, chain = glue
            lat = diag.lattice
            parts = []
            for group, where in ((left.diagram.lattice.names, "children[0]"),
                                 (right.diagram.lattice.names, "children[1]"),
                                 (chain, "chain")):
                try:
                    parts.append(frozenset([lat.index[name] for name in group]))
                except KeyError as exc:
                    raise SchemaError(f"{path}.{where}", f"element {exc.args[0]!r} "
                                      f"is not in the node's lattice") from None
            finished.append(DecompGlue(left, right, len(chain),
                                       GluingWitness(lat, *parts), diag))
            continue
        if level > MAX_TREE_DEPTH:
            raise SchemaError(path, f"a tree document holds at most "
                                    f"{MAX_TREE_DEPTH} levels")
        if not isinstance(doc, dict):
            raise SchemaError(path, "expected an object")
        kind = doc.get("kind")
        lattice = doc.get("lattice")
        diag = _diagram_from_dict(lattice, f"{path}.lattice", max_synth=max_synth,
                                  parent=parent)
        if kind == "leaf":
            finished.append(DecompLeaf(diag))
            continue
        if kind != "glue":
            raise SchemaError(f"{path}.kind", f"expected 'leaf' or 'glue', got {kind!r}")
        children = doc.get("children")
        if not isinstance(children, list) or len(children) != 2:
            raise SchemaError(f"{path}.children", "expected [ideal part, filter part]")
        chain = doc.get("chain")
        if not isinstance(chain, list) or not all(isinstance(n, str) for n in chain):
            raise SchemaError(f"{path}.chain", "expected a list of labels")
        here = (diag, lattice.get("embedding"))
        stack += [(doc, path, level, None, (diag, chain)),
                  (children[1], f"{path}.children[1]", level + 1, here, None),
                  (children[0], f"{path}.children[0]", level + 1, here, None)]
    return finished.pop()


def parse_tree_document(text, max_synth=16):
    """Parse a decomposition-tree document produced by `serialize_tree`.

    The root's lattice is parsed and validated in full, like a lattice
    document.  Each child's lattice object is first checked against its
    parent node's, on its raw JSON values and before any schema check
    (`_derived_child`): an interval of the parent, listed in the parent's
    order with the parent's covers and coordinate text and heights shifted
    by one constant, as every child `serialize_tree` writes is, is derived
    from the parent in one O(k) pass (`Lattice._derived`), without a full
    lattice build or a crossing check.  Any other child is parsed and
    validated in full, with the same result or error as on its own.
    Whether the children really split their parent is `verify_tree`'s
    question, not parsing's.

    Errors in the JSON itself are reported as by `_load_json`."""
    return _tree_from_dict(_load_json(text), "$", max_synth=max_synth)


# -- DOT export ----------------------------------------------------------

def export_dot(diag):
    """A deterministic DOT digraph: edges point upward, ranks follow height,
    nodes within a rank are listed left to right."""
    lat = diag.lattice
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=circle];"]
    by_level = {}
    for v in range(lat.n):
        by_level.setdefault(lat.height[v], []).append(v)
    for h in sorted(by_level):
        row = sorted(by_level[h], key=lambda v: (diag.xcoord[v], v))
        names = "; ".join(json.dumps(str(lat.names[v])) for v in row)
        lines.append(f"  {{ rank=same; {names}; }}")
    for a, b in lat.covers:
        lines.append(f"  {json.dumps(str(lat.names[a]))} -> "
                     f"{json.dumps(str(lat.names[b]))};")
    lines.append("}")
    return "\n".join(lines) + "\n"
