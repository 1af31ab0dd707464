"""Benchmark command: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Each run measures in one fresh interpreter.  With `--trace 0` it runs
set-up three times and the timed passes, and the end-to-end metrics are
printed.  With `--trace 1` its timed passes alternate untraced and traced;
the per-layer metrics come from the traced passes, and
`trace.overhead_ratio` is the ratio of traced to untraced item times.  The
last line of standard output is one JSON object; the exit code is 0 only
when every output checked correct.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
SETUPS = 3
TIME_LIMIT_S = 170          # for the measuring child
# generators runs in set-up only; it is reported as generators.generate.s
TIMED_LAYERS = [layer for layer in tracer.LAYERS if layer != "generators"]

# (metric, unit, span name, span field or None for a counter)
LAYER_METRICS = [
    ("core.lattice.calls", "count", "core.lattice", "calls"),
    ("core.lattice.self_s", "s", "core.lattice", "self_s"),
    ("core.lattice.elements", "count", "core.lattice.elements", None),
    ("core.isomorphic.calls", "count", "core.isomorphic", "calls"),
    ("core.isomorphic.self_s", "s", "core.isomorphic", "self_s"),
    ("diagram.boundary.calls", "count", "diagram.boundary", "calls"),
    ("diagram.boundary.self_s", "s", "diagram.boundary", "self_s"),
    ("diagram.validate.calls", "count", "diagram.validate", "calls"),
    ("diagram.validate.self_s", "s", "diagram.validate", "self_s"),
    ("diagram.subdiagram.self_s", "s", "diagram.subdiagram", "self_s"),
    ("diagram.slim.self_s", "s", "diagram.slim", "self_s"),
    ("diagram.eyes_removed", "count", "diagram.eyes_removed", None),
    ("ops.extension.calls", "count", "ops.extension", "calls"),
    ("ops.extension.self_s", "s", "ops.extension", "self_s"),
    ("ops.sites.calls", "count", "ops.sites", "calls"),
    ("ops.sites.self_s", "s", "ops.sites", "self_s"),
    ("ops.pullback.calls", "count", "ops.pullback", "calls"),
    ("ops.pullback.self_s", "s", "ops.pullback", "self_s"),
    ("ops.witness.calls", "count", "ops.witness", "calls"),
    ("ops.witness.self_s", "s", "ops.witness", "self_s"),
    ("ops.cut.self_s", "s", "ops.cut", "self_s"),
    ("ops.hull_elements", "count", "ops.hull_elements", None),
    ("pipeline.oracle.calls", "count", "pipeline.oracle", "calls"),
    ("pipeline.oracle.self_s", "s", "pipeline.oracle", "self_s"),
    ("pipeline.decompose.s", "s", "pipeline.decompose", "s"),
    ("pipeline.verify.s", "s", "pipeline.verify", "s"),
    ("pipeline.nodes", "count", "pipeline.nodes", None),
    ("documents.parse.calls", "count", "documents.parse", "calls"),
    ("documents.parse.self_s", "s", "documents.parse", "self_s"),
    ("documents.serialize.self_s", "s", "documents.serialize", "self_s"),
    ("documents.serialize.bytes", "bytes", "documents.serialize.bytes", None),
]


def run_child(workload, seed, seconds, traced, setups):
    """Run measure.py in a fresh interpreter; its JSON result or None."""
    cmd = [sys.executable, str(HERE / "measure.py"), workload, str(seed),
           str(seconds), "1" if traced else "0", str(setups)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: measurement exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: measurement exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def end_to_end(res):
    """The user-visible metrics of an untraced run."""
    item_s = sorted(res["item_s"])
    deciles = statistics.quantiles(item_s, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(res["setup_s"]), "s"),
        "items_per_s": (res["attempted"] / res["timed_s"], "1/s"),
        "item_p50_ms": (1000 * statistics.median(item_s), "ms"),
        "item_p90_ms": (1000 * deciles[8], "ms"),
        "item_max_ms": (1000 * item_s[-1], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(traced):
    """Per-pass layer metrics of a traced run."""
    passes = traced["traced_passes"]
    out = {}
    for metric, unit, source, field in LAYER_METRICS:
        total = (traced["spans"].get(source, {}).get(field, 0) if field
                 else traced["counts"].get(source, 0))
        out[metric] = (total / passes, unit)
    for layer in TIMED_LAYERS:
        self_s = sum(entry["self_s"] for name, entry in traced["spans"].items()
                     if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = (self_s / passes, "s")
    generate = traced["setup_spans"].get("generators.generate", {})
    out["generators.generate.s"] = (generate.get("s", 0.0), "s")
    extensions = out["ops.extension.calls"][0]
    pullbacks = out["ops.pullback.calls"][0]
    out["ops.sites_per_extension"] = (
        out["ops.sites.calls"][0] / extensions if extensions else 0.0, "ratio")
    out["ops.witness_per_pullback"] = (
        out["ops.witness.calls"][0] / pullbacks if pullbacks else 0.0, "ratio")
    out["trace.overhead_ratio"] = (
        sum(traced["traced_item_s"]) / sum(traced["item_s"]), "ratio")
    return out


def main():
    # exiting on SIGTERM lets subprocess.run kill and reap a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    res = run_child(args.workload, args.seed, args.seconds, bool(args.trace),
                    1 if args.trace else SETUPS)
    if res is None:
        return 1
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0
    metrics = per_layer(res) if args.trace else end_to_end(res)

    passes = res["passes"] + res.get("traced_passes", 0)
    print(f"workload {args.workload}: seed {args.seed}, {res['items']} items x "
          f"{passes} passes, failed_ratio {failed / attempted:g} "
          f"({failed}/{attempted}), digest {res['digest'][:16]}, host factor "
          f"{statistics.median(res['host_factors']):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
