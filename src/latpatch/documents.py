"""JSON documents for diagrams and decomposition trees, plus DOT export.

Rationals are serialized as strings in lowest terms so that round trips
are bit-exact; a document without an embedding gets one synthesized.
"""

import json
from fractions import Fraction

from .core import Lattice
from .diagram import Diagram, validate_diagram, synthesize_embedding
from .errors import CycleDetected, SchemaError, EmbeddingFailed, SizeBoundExceeded
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
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(path, f"not a rational: {text!r}")


def _diagram_to_dict(diag):
    lat = diag.lattice
    return {
        "elements": list(lat.names),
        "covers": [[a, b] for a, b in lat.covers],
        "embedding": {lat.names[v]: _format_rational(diag.xcoord[v])
                      for v in range(lat.n)},
        "meta": {},
    }


def serialize(diag, meta=None):
    """Serialize a diagram; keys sorted, rationals in lowest terms."""
    doc = _diagram_to_dict(diag)
    if meta:
        doc["meta"] = dict(meta)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _diagram_from_dict(doc, path, max_synth=16):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
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
        pairs.append((elements[a], elements[b]))
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError(f"{path}.meta", "expected an object")
    try:
        lat = Lattice(pairs, elements=elements)
    except CycleDetected as exc:
        raise SchemaError(f"{path}.covers", f"cycle: {exc}")
    embedding = doc.get("embedding")
    if embedding is None:
        try:
            diag = synthesize_embedding(lat, max_size=max_synth)
        except SizeBoundExceeded as exc:
            raise EmbeddingFailed(str(exc))
        if diag is None:
            raise EmbeddingFailed(
                f"no planar drawing exists for the {lat.n}-element lattice")
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


def parse_document(text, max_synth=16):
    """Parse a diagram document; inverse of `serialize`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}")
    return _diagram_from_dict(doc, "$", max_synth=max_synth)


# -- decomposition trees -------------------------------------------------

def _tree_to_dict(node):
    if isinstance(node, DecompLeaf):
        return {"kind": "leaf", "lattice": _diagram_to_dict(node.diagram)}
    return {
        "kind": "glue",
        "lattice": _diagram_to_dict(node.diagram),
        "chain": node.diagram.lattice.labels(node.witness.C),
        "children": [_tree_to_dict(node.left), _tree_to_dict(node.right)],
    }


def serialize_tree(tree):
    return json.dumps(_tree_to_dict(tree), sort_keys=True, indent=2) + "\n"


def _tree_from_dict(doc, path, max_synth=16):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    kind = doc.get("kind")
    diag = _diagram_from_dict(doc.get("lattice"), f"{path}.lattice",
                              max_synth=max_synth)
    if kind == "leaf":
        return DecompLeaf(diag)
    if kind != "glue":
        raise SchemaError(f"{path}.kind", f"expected 'leaf' or 'glue', got {kind!r}")
    children = doc.get("children")
    if not isinstance(children, list) or len(children) != 2:
        raise SchemaError(f"{path}.children", "expected [ideal part, filter part]")
    chain = doc.get("chain")
    if not isinstance(chain, list) or not all(isinstance(n, str) for n in chain):
        raise SchemaError(f"{path}.chain", "expected a list of labels")
    left = _tree_from_dict(children[0], f"{path}.children[0]", max_synth=max_synth)
    right = _tree_from_dict(children[1], f"{path}.children[1]", max_synth=max_synth)
    lat = diag.lattice
    for group, where in ((left.diagram.lattice.names, "children[0]"),
                         (right.diagram.lattice.names, "children[1]"),
                         (chain, "chain")):
        for name in group:
            if name not in lat.index:
                raise SchemaError(f"{path}.{where}",
                                  f"element {name!r} is not in the node's lattice")
    witness = GluingWitness(
        lat,
        frozenset(lat.id_of(n) for n in left.diagram.lattice.names),
        frozenset(lat.id_of(n) for n in right.diagram.lattice.names),
        frozenset(lat.id_of(n) for n in chain))
    return DecompGlue(left, right, len(chain), witness, diag)


def parse_tree_document(text, max_synth=16):
    """Parse a decomposition-tree document produced by `serialize_tree`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}")
    return _tree_from_dict(doc, "$", max_synth=max_synth)


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
