"""One measured run of one workload, in the current process.

    python3 perfbench/measure.py WORKLOAD SEED SECONDS TRACED SETUPS

Runs set-up at least SETUPS times (the last result is used), then passes over the
items until the next pass would end past SECONDS (at least one pass), and
prints one JSON line: per-item median times, counts, digest and peak RSS.
When TRACED is 1 the passes alternate untraced and traced, starting
untraced, with at least one of each; the line then also holds the traced
passes' per-item medians and the per-span summary.  `run.py` starts this
script in a fresh interpreter with a fixed PYTHONHASHSEED.

Times are scaled to a fixed host speed.  A shared host runs this process
up to 40% slower for tens of seconds at a time, so between items, outside
the timed region, a fixed pure-Python reference loop is timed; each pass's
item times (and the set-up times) are multiplied by REFERENCE_S over the
median reference time of that pass (or of the set-up).
"""

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import latpatch  # noqa: E402

if not Path(latpatch.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"latpatch was imported from {latpatch.__file__}, not from {SRC}")

import tracer  # noqa: E402
import workloads  # noqa: E402


# A set-up that takes milliseconds is repeated until this much time has
# passed, so that the median of its repetitions is steady.
MIN_SETUP_S = 2.0

# The reference loop's median time on a 2-core 8 GB VM under CPython 3.11.7;
# scaled times are the times at the host speed where it takes this long.
REFERENCE_S = 0.00125
# Reference timings per pass (and per set-up) at the least.
REFERENCE_SAMPLES = 30


def reference():
    """A fixed pure-Python workload of about a millisecond: the transitive
    closure of a small DAG as sets, then a table of intersection sizes."""
    n = 100
    up = [{j for j in range(i + 1, n) if (i * 7 + j * 3) % 5 == 0} for i in range(n)]
    for i in reversed(range(n)):
        for j in list(up[i]):
            up[i] |= up[j]
    table = {(i, j): len(up[i] & up[j]) for i in range(0, n, 3) for j in range(0, n, 3)}
    return sum(table.values())


def time_reference(samples, count):
    """Append `count` timings of the reference loop to `samples`."""
    for _ in range(count):
        t0 = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - t0)


def host_factor(samples):
    """The factor that scales times measured alongside `samples`."""
    return REFERENCE_S / statistics.median(samples)


def one_pass(workload, items, digests, fingerprints):
    """Each item's time in one pass over `items`, scaled to the reference
    host speed, and the failure count.  An item's output must match its
    fingerprint from earlier passes."""
    times, failed, samples = [], 0, []
    per_item = -(-REFERENCE_SAMPLES // len(items))
    for item in items:
        arg = workloads.prepare(workload, item)
        gc.collect()
        time_reference(samples, per_item)
        t0 = time.perf_counter()
        try:
            out = workloads.run_item(workload, arg)
        except Exception:  # one failing item must not end the run
            times.append(time.perf_counter() - t0)
            error = traceback.format_exc()
        else:
            times.append(time.perf_counter() - t0)
            fingerprint, error = workloads.check(workload, item, out, digests)
            if error is None and fingerprints.setdefault(item.key, fingerprint) != fingerprint:
                error = "output differs from the item's first pass"
        if error is not None:
            failed += 1
            fingerprints[item.key] = "failed"
            print(f"FAILED {workload} {item.key}: {error}", file=sys.stderr)
    time_reference(samples, per_item)
    factor = host_factor(samples)
    return [t * factor for t in times], failed, factor


def timed_passes(workload, items, seconds, digests, recorder=None):
    """Passes over `items` until the next would end past `seconds`.  With a
    recorder, passes alternate untraced and traced and at least one of each
    runs.  Returns the untraced and the traced passes' item times, the item
    fingerprints, the failure count, and each pass's host factor."""
    passes = {False: [], True: []}
    fingerprints = {}
    failed, factors = 0, []
    start = time.perf_counter()
    while True:
        traced = recorder is not None and len(passes[False]) > len(passes[True])
        uninstall = tracer.install(recorder) if traced else None
        pass_start = time.perf_counter()
        try:
            times, bad, factor = one_pass(workload, items, digests, fingerprints)
        finally:
            if uninstall:
                uninstall()
        passes[traced].append(times)
        failed += bad
        factors.append(factor)
        now = time.perf_counter()
        if ((recorder is None or passes[True])
                and now - start + (now - pass_start) > seconds):
            return passes[False], passes[True], fingerprints, failed, factors


def item_medians(passes):
    """Each item's median time over `passes`."""
    return [statistics.median(t) for t in zip(*passes)]


def measure(workload, seed, seconds, traced, setups, specs=None):
    """One run: set-up at least `setups` times, and until MIN_SETUP_S have
    passed when `setups` > 1; then timed passes.  A JSON-able dict."""
    recorder = tracer.Recorder() if traced else None
    uninstall = tracer.install(recorder) if traced else None
    try:
        setup_s, samples = [], []
        while len(setup_s) < setups or (setups > 1 and sum(setup_s) < MIN_SETUP_S):
            items = None  # free the previous set-up's items before the next
            gc.collect()
            time_reference(samples, REFERENCE_SAMPLES // 3)
            t0 = time.perf_counter()
            items = workloads.build(workload, seed, specs)
            setup_s.append(time.perf_counter() - t0)
        time_reference(samples, REFERENCE_SAMPLES // 3)
    finally:
        if uninstall:
            uninstall()
    if traced:
        setup_spans = recorder.summary()
        recorder.clear()
    plain, traced_passes, fingerprints, failed, factors = timed_passes(
        workload, items, seconds, workloads.load_digests(), recorder)
    setup_factor = host_factor(samples)
    result = {
        "items": len(items),
        "passes": len(plain),
        "attempted": len(items) * (len(plain) + len(traced_passes)),
        "failed": failed,
        "setup_s": [t * setup_factor for t in setup_s],
        "host_factors": [setup_factor] + factors,
        "item_s": item_medians(plain),
        "timed_s": sum(map(sum, plain)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": workloads.combined_digest(fingerprints),
    }
    if traced:
        result["traced_passes"] = len(traced_passes)
        result["traced_item_s"] = item_medians(traced_passes)
        result["setup_spans"] = setup_spans
        result["spans"] = recorder.summary()
        result["counts"] = dict(recorder.counts)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{workload}-{seed}.tsv")
    return result


if __name__ == "__main__":
    workload, seed, seconds, traced, setups = sys.argv[1:]
    print(json.dumps(measure(workload, int(seed), float(seconds), traced == "1",
                             int(setups))))
