"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, that
the traced run's digest equals the untraced one, that a tampered tree
document trips the correctness gate, and that the command fails without
the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Two small structures per workload; `corpus` and `ladder` ones must have a
# recorded digest.
TINY = {
    "corpus": [("grid", (3, 3), 0), ("random-sps", (10,), 1001)],
    "ladder": [("diamond", (4,), 0), ("random-sps", (13,), 1004)],
    "certify": [("grid", (3, 3), 0), ("random-sps", (12,), 2000)],
}


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def emitted(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted(workload):
    plain = measure.measure(workload, 1, 0.0, False, 2, specs=TINY[workload])
    assert plain["failed"] == 0 and plain["attempted"] == 2
    e2e = run.end_to_end(plain)
    assert emitted(e2e) == declared("end_to_end")
    assert all(value > 0 for value, _ in e2e.values())

    traced = measure.measure(workload, 1, 0.0, True, 1, specs=TINY[workload])
    assert traced["failed"] == 0 and traced["attempted"] == 4
    assert (traced["passes"], traced["traced_passes"]) == (1, 1)
    assert traced["digest"] == plain["digest"]
    assert emitted(run.per_layer(traced)) == declared("per_layer")


def tamper(tree_text):
    """Drop the last element of the root's overlap chain."""
    doc = json.loads(tree_text)
    doc["chain"] = doc["chain"][:-1]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_tampered_certificate_fails_certify():
    items = workloads.build("certify", 1, specs=TINY["certify"][:1])
    lattice_text, tree_text = items[0].documents
    items[0].documents = (lattice_text, tamper(tree_text))
    plain, _, _, failed, _ = measure.timed_passes("certify", items, 0.0, {})
    assert (len(plain), failed) == (1, 1)


def test_tampered_tree_fails_digest_gate():
    digests = workloads.load_digests()
    (item,) = workloads.build("corpus", 1, specs=TINY["corpus"][:1])
    tree, _ = workloads.lp.decompose(item.diagram)
    text = workloads.lp.serialize_tree(tree)
    assert workloads.check("corpus", item, (None, text), digests)[1] is None
    fingerprint, error = workloads.check("corpus", item, (None, tamper(text)), digests)
    assert fingerprint is None and "digest" in error


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
