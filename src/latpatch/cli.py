"""Command-line surface: check, slim, rectangularize, decompose, verify,
oracle, gen, dot.

Exit codes: 0 success, 1 failed check or verification, 2 usage and IO
errors (including malformed documents), 3 an input too large: the
interpreter's recursion limit or the memory ran out, or `decompose -o` was
asked to write a certificate deeper than a tree document may be
(`documents.MAX_TREE_DEPTH`).
"""

import argparse
import itertools
import json
import os
import sys

from . import diagram as dg
from .core import is_semimodular
from .documents import (_tree_chunks, export_dot, parse_document,
                        parse_tree_document, serialize)
from .errors import EmbeddingFailed, LatpatchError, SchemaError, TreeTooDeep
from .generators import generate
from .ops import rectangularize
from .pipeline import brute_force_gluing_search, decompose, sequence_of, verify_tree


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaError("$", f"{path} is not UTF-8 text: {exc.reason} "
                                   f"at byte {exc.start}") from None


def _write(path, chunks):
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


def _load_diagram(path, args):
    return parse_document(_read(path), max_synth=args.max_synth)


def cmd_check(args):
    flags = {"lattice": False, "semimodular": False, "planar": False,
             "slim": False, "rectangular": False, "patch": False}
    diag = None
    try:
        diag = _load_diagram(args.file, args)
    except SchemaError:
        raise
    except EmbeddingFailed as exc:
        # the lattice itself is fine; it just admits no drawing at this bound
        flags["lattice"] = True
        flags["semimodular"] = is_semimodular(exc.lattice)
    except LatpatchError:
        pass
    if diag is not None:
        flags["lattice"] = True
        flags["planar"] = dg.validate_diagram(diag) is None
        flags["semimodular"] = is_semimodular(diag.lattice)
        flags["slim"] = dg.is_slim(diag)
        flags["rectangular"] = dg.is_rectangular(diag)
        flags["patch"] = dg.is_patch(diag)
    print(json.dumps(flags, sort_keys=True))
    ok = flags["lattice"] and flags["planar"] and flags["semimodular"]
    return 0 if ok else 1


def cmd_slim(args):
    diag = _load_diagram(args.file, args)
    slimmed, records = dg.slim(diag)
    _write(args.output, [serialize(slimmed)])
    print(f"removed {len(records)} eye(s)", file=sys.stderr)
    return 0


def cmd_rectangularize(args):
    diag = _load_diagram(args.file, args)
    rect, steps = rectangularize(diag)
    _write(args.output, [serialize(rect)])
    print(f"added {len(steps)} element(s)", file=sys.stderr)
    return 0


def cmd_decompose(args):
    diag = _load_diagram(args.file, args)
    tree, trace = decompose(diag)
    if args.output:
        chunks = _tree_chunks(tree)
        # the depth check runs before the first chunk, so a tree too deep to
        # write is refused before the output file is opened
        _write(args.output, itertools.chain([next(chunks)], chunks))
    entries, parts = sequence_of(tree)
    for i, entry in enumerate(entries, start=1):
        n = entry.lattice.n
        if i in parts:
            j, k = parts[i]
            print(f"L{i}: {n} elements = gluing of L{j} and L{k} over a chain")
        else:
            print(f"L{i}: {n} elements (patch)")
    if args.trace:
        print(f"trace: {len(trace.eyes)} eye(s) removed, "
              f"{len(trace.extension_steps)} extension step(s), "
              f"fallback_used={trace.fallback_used}", file=sys.stderr)
    return 0


def cmd_verify(args):
    diag = _load_diagram(args.file, args)
    tree = parse_tree_document(_read(args.tree), max_synth=args.max_synth)
    violation = verify_tree(tree, diag)
    if violation is None:
        print("ok")
        return 0
    print(f"violation at {violation.path} [{violation.clause}]: "
          f"{violation.detail}")
    return 1


def cmd_oracle(args):
    diag = _load_diagram(args.file, args)
    witness = brute_force_gluing_search(diag)
    if witness is None:
        print("none")
    else:
        a, b, c = witness.labels()
        print(json.dumps({"A": a, "B": b, "C": c}, sort_keys=True))
    return 0


def cmd_gen(args):
    diag = generate(args.kind, args.params, seed=args.seed)
    _write(args.output, [serialize(diag)])
    return 0


def cmd_dot(args):
    diag = _load_diagram(args.file, args)
    _write(args.output, [export_dot(diag)])
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="latpatch",
        description="decompose planar semimodular lattices into patch "
                    "lattices glued over chains")
    parser.add_argument("--max-synth", type=int, default=16, metavar="N",
                        help="size bound for embedding synthesis (default 16)")
    parser.add_argument("--trace", action="store_true",
                        help="report pipeline statistics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="print predicate flags for a document")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("slim", help="remove all eyes")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_slim)

    p = sub.add_parser("rectangularize", help="extend until rectangular")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_rectangularize)

    p = sub.add_parser("decompose", help="decompose into patch lattices")
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="TREE")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="re-check a decomposition tree")
    p.add_argument("file")
    p.add_argument("tree")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="search for a chain gluing")
    p.add_argument("file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a corpus lattice")
    p.add_argument("kind", choices=["chain", "grid", "diamond", "random-sps"])
    p.add_argument("params", nargs="+", type=int)
    # a string default goes through `type` only when gen runs without
    # --seed, so a malformed LATPATCH_SEED is a usage error of gen alone
    p.add_argument("--seed", type=int,
                   default=os.environ.get("LATPATCH_SEED", "0"))
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("dot", help="export a DOT drawing")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_dot)

    return parser


def cli(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TreeTooDeep as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 3
    except LatpatchError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input too large: the interpreter's recursion limit was "
              "reached", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
        return 3


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
