"""Compare two spine records metric by metric against the bounds.

    python3 benchmarks/spine/compare.py A.json B.json

``A`` is the reference, ``B`` the candidate; each is a combined record
(``run.py`` without ``--workload``) or one workload's record.  For every
(workload, metric) present in both, prints both values, how much worse
``B`` is as a share of ``A`` (negative = better, direction taken from
``BENCHMARK.json``), and the metric's bound.  Per-layer metrics have no
bound and never fail the comparison.  Exits non-zero when an end-to-end
metric is worse by more than its bound, or when either record is not
``correct``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def workloads_of(path: str) -> dict:
    record = json.loads(Path(path).read_text(encoding="ascii"))
    if "workloads" in record:
        return record["workloads"]
    return {record["workload"]: record}


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    delta = (b - a) / abs(a)
    return -delta if better == "higher" else delta


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}
    a_all, b_all = workloads_of(argv[0]), workloads_of(argv[1])
    failures = []
    print(f"{'workload':<14}{'metric':<30}{'A':>14}{'B':>14}{'worse by':>10}{'bound':>8}")
    for workload in a_all:
        if workload not in b_all:
            continue
        a_rec, b_rec = a_all[workload], b_all[workload]
        for side, rec in (("A", a_rec), ("B", b_rec)):
            if not rec["correct"]:
                failures.append(f"{workload}: record {side} is not correct")
        for name, entry in a_rec["metrics"].items():
            if name not in b_rec["metrics"] or name not in declared:
                continue
            a, b = entry["value"], b_rec["metrics"][name]["value"]
            worse = worsening(a, b, declared[name]["better"])
            bound = declared[name].get("bound")
            verdict = ""
            if bound is not None and worse > bound:
                verdict = "  REGRESSION"
                failures.append(f"{workload}: {name} worse by {worse:.1%} > {bound:.0%}")
            print(
                f"{workload:<14}{name:<30}{a:>14.6g}{b:>14.6g}{worse:>+10.1%}"
                f"{'' if bound is None else format(bound, '.0%'):>8}{verdict}"
            )
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
