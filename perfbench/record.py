"""Re-record the tree-document digests that the correctness gate compares.

    PYTHONHASHSEED=0 python3 perfbench/record.py

Decomposes every `corpus` and `ladder` input under its generator's labels
and writes the SHA-256 of each `serialize_tree` output into baseline.json.
Run it only when a change is meant to alter the tree documents.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

if __name__ == "__main__":
    baseline = json.loads(workloads.BASELINE.read_text())
    baseline["digests"] = workloads.record_digests()
    workloads.BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
