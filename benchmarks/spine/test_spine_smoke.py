"""Tier-1 smoke test of the measurement spine.

Runs ``run.py --smoke`` (every workload, tiny sizes, both the untraced
and the traced run) and checks the contract the full benchmark relies
on: every metric ``BENCHMARK.json`` declares is reported, finite and in
its declared unit; every batch matched the serial engine; and the
set-up layers account for the walked set-up's wall.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parent.parent

#: The spans of the set-up walk that lie on ``open()``'s path.
_SETUP_LAYERS = {
    "db.build", "sharding.plan", "index.arena_build", "core.plan",
    "parallel.arena_spill", "service.open",
}


def test_smoke_reports_every_declared_metric(tmp_path):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = tmp_path / "spine.json"
    proc = subprocess.run(
        [sys.executable, str(SPINE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    combined = json.loads(out.read_text(encoding="ascii"))
    assert combined["claim"] is None
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    assert list(combined["workloads"]) == [w["name"] for w in manifest["workloads"]]

    for name, record in combined["workloads"].items():
        assert record["correct"], name
        assert record["failed"] == 0 and record["attempted"] >= 1, name
        assert 1 <= record["stamp"]["measured_batches"] <= 30, name
        for key in ("nproc", "platform", "python", "numpy", "seed", "n_entries", "n_ions"):
            assert record["stamp"][key] is not None, (name, key)
        metrics = record["metrics"]
        assert set(metrics) == set(declared), name
        for metric, entry in metrics.items():
            assert entry["unit"] == declared[metric], (name, metric)
            assert math.isfinite(entry["value"]), (name, metric)
        for metric in manifest["end_to_end"]:
            assert metrics[metric["name"]]["value"] > 0, (name, metric["name"])

        # The set-up walk's layers reconstruct its own wall: what is
        # left over is glue between the calls.
        spans = [
            json.loads(line)
            for line in (SPINE / "out" / f"{name}.spans.jsonl").read_text().splitlines()
        ]
        (walk,) = [s for s in spans if s["name"] == "setup.walk"]
        layers = sum(
            s["end"] - s["start"]
            for s in spans
            if s["parent"] == walk["id"] and s["name"] in _SETUP_LAYERS
        )
        wall = walk["end"] - walk["start"]
        assert abs(wall - layers) <= 0.15 * wall, (name, wall, layers)
