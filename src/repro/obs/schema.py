"""Trace-record taxonomy and JSONL validation.

This module is the single source of truth for what a trace may
contain: every span name and event kind the serving stack emits,
with the attribute keys each record must carry.  The CI ``obs-smoke``
job runs it directly::

    PYTHONPATH=src python -m repro.obs.schema trace.jsonl
    PYTHONPATH=src python -m repro.obs.schema --stats trace.jsonl \
        --require respawn>=1 --require worker.query>=1

and exits non-zero if any line is malformed, any span/event is
unknown, any required attribute is missing, or a ``--require``d
span/event count falls short.  ``--stats`` prints per-name record
counts and span-duration sums (the structured replacement for
grepping raw JSONL).  Tests reuse :func:`validate_trace_file` /
:func:`validate_record` so the schema checked in CI is the schema
asserted in the suite.

See the package docstring (:mod:`repro.obs`) for the human-readable
taxonomy table; this module is its executable form.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

__all__ = [
    "SPAN_ATTRS",
    "EVENT_ATTRS",
    "validate_record",
    "validate_trace_lines",
    "validate_trace_file",
    "trace_stats",
]

#: Required attribute keys per span name (beyond ``type``/``name``/
#: ``ts``/``dur``, which every span carries).
SPAN_ATTRS: Dict[str, Tuple[str, ...]] = {
    # Master-side pipeline stages (service.py).
    "prepare": ("batch",),
    "dispatch": ("batch",),
    "collect": ("batch",),
    "merge": ("batch",),
    # Worker-side spans re-anchored at merge time from reply payloads.
    "worker.open": ("batch", "rank"),
    "worker.query": ("batch", "rank", "cpu_s"),
    # Shard-router stages (sharding.py).
    "route": ("batch", "dispatched", "skipped"),
    "demux": ("batch",),
}

#: Required attribute keys per event kind (beyond ``type``/``kind``/
#: ``ts``).
EVENT_ATTRS: Dict[str, Tuple[str, ...]] = {
    # Session lifecycle (service.py / sharding.py).
    "session.open": ("n_workers",),
    "session.close": (),
    # Per-batch summary: the live LI gauge plus supervision totals.
    "batch": (
        "batch",
        "n_spectra",
        "total_s",
        "li_wall",
        "li_cpu",
        "retries",
        "hedged",
        "respawned",
    ),
    # Supervision transitions (persistent.py).
    "retry": ("rank", "attempt"),
    "backoff": ("rank", "delay_s"),
    "respawn": ("rank",),
    "hedge.launch": ("rank",),
    "hedge.win": ("rank",),
    "hedge.loss": ("rank",),
    "degraded.rank": ("rank",),
    # Shard-level degradation (sharding.py).
    "degraded.shard": ("shard",),
    # Elastic rebalancing (service.py / rebalance.py): a window
    # tripping the trigger, the applied migration, and the pool's
    # size change (persistent.py emits the resize).
    "rebalance.trigger": ("batch", "reason", "window_li", "n_workers"),
    "rebalance.migrate": ("reason", "n_from", "n_to", "changed_ranks"),
    "pool.resize": ("n_from", "n_to"),
    # Flight-recorder dump marker (ring.py): the last record written
    # before a black box is cut, naming why it exists.
    "flight.dump": ("reason",),
}


def validate_record(obj: Any) -> List[str]:
    """Return the list of schema violations for one decoded record."""
    errors: List[str] = []
    if not isinstance(obj, Mapping):
        return [f"record is not an object: {obj!r}"]
    rtype = obj.get("type")
    if rtype == "span":
        name = obj.get("name")
        if not isinstance(name, str):
            return [f"span without a string name: {obj!r}"]
        if name not in SPAN_ATTRS:
            return [f"unknown span name {name!r}"]
        for key in ("ts", "dur"):
            if not isinstance(obj.get(key), (int, float)):
                errors.append(f"span {name!r}: missing numeric {key!r}")
        dur = obj.get("dur")
        if isinstance(dur, (int, float)) and dur < 0:
            errors.append(f"span {name!r}: negative dur {dur!r}")
        for key in SPAN_ATTRS[name]:
            if key not in obj:
                errors.append(f"span {name!r}: missing attr {key!r}")
    elif rtype == "event":
        kind = obj.get("kind")
        if not isinstance(kind, str):
            return [f"event without a string kind: {obj!r}"]
        if kind not in EVENT_ATTRS:
            return [f"unknown event kind {kind!r}"]
        if not isinstance(obj.get("ts"), (int, float)):
            errors.append(f"event {kind!r}: missing numeric 'ts'")
        for key in EVENT_ATTRS[kind]:
            if key not in obj:
                errors.append(f"event {kind!r}: missing attr {key!r}")
    else:
        errors.append(f"unknown record type {rtype!r}")
    return errors


def validate_trace_lines(
    lines: Iterable[str],
) -> Tuple[int, List[str]]:
    """Validate decoded-or-not JSONL lines.

    Returns ``(n_records, errors)`` where each error is prefixed with
    its 1-based line number.  Blank lines are ignored.
    """
    n = 0
    errors: List[str] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        n += 1
        errors.extend(f"line {lineno}: {e}" for e in validate_record(obj))
    return n, errors


def validate_trace_file(path: Union[str, Path]) -> Tuple[int, List[str]]:
    """Validate a JSONL trace file; returns ``(n_records, errors)``."""
    with open(path, "r", encoding="ascii") as fh:
        return validate_trace_lines(fh)


def trace_stats(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """Per-name counts (and span-duration sums) for one trace file.

    Returns ``{name: {"type": "span"|"event", "count": int,
    "dur_s": float}}`` where ``dur_s`` is the summed span duration
    (0.0 for events).  Only schema-known names appear; validation is
    a separate concern (:func:`validate_trace_file`).
    """
    stats: Dict[str, Dict[str, Any]] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(obj, Mapping):
                continue
            if obj.get("type") == "span":
                name, rtype = obj.get("name"), "span"
            elif obj.get("type") == "event":
                name, rtype = obj.get("kind"), "event"
            else:
                continue
            if not isinstance(name, str):
                continue
            entry = stats.setdefault(
                name, {"type": rtype, "count": 0, "dur_s": 0.0}
            )
            entry["count"] += 1
            dur = obj.get("dur")
            if rtype == "span" and isinstance(dur, (int, float)):
                entry["dur_s"] += float(dur)
    return stats


def _parse_requirement(spec: str) -> Tuple[str, str, int]:
    """Parse ``NAME>=N`` / ``NAME=N`` into ``(name, op, n)``."""
    for op in (">=", "="):
        if op in spec:
            name, _, count = spec.partition(op)
            name, count = name.strip(), count.strip()
            if name and count.isdigit():
                return name, op, int(count)
    raise ValueError(f"bad --require spec {spec!r} (want NAME>=N or NAME=N)")


def main(argv: List[str]) -> int:
    show_stats = False
    requirements: List[Tuple[str, str, int]] = []
    paths: List[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--stats":
            show_stats = True
        elif arg == "--require":
            try:
                requirements.append(_parse_requirement(next(it, "")))
            except ValueError as exc:
                print(f"SCHEMA: {exc}", file=sys.stderr)
                return 2
        else:
            paths.append(arg)
    if len(paths) != 1:
        print(
            "usage: python -m repro.obs.schema [--stats] "
            "[--require NAME>=N]... TRACE.jsonl",
            file=sys.stderr,
        )
        return 2
    path = paths[0]
    n, errors = validate_trace_file(path)
    spans = sum(1 for _ in SPAN_ATTRS)
    if errors:
        for e in errors[:50]:
            print(f"SCHEMA: {e}", file=sys.stderr)
        print(
            f"{path}: {n} records, {len(errors)} schema violations",
            file=sys.stderr,
        )
        return 1
    print(
        f"{path}: {n} records OK "
        f"({spans} span names, {len(EVENT_ATTRS)} event kinds known)"
    )
    stats = trace_stats(path) if (show_stats or requirements) else {}
    if show_stats:
        for name in sorted(stats):
            entry = stats[name]
            line = f"  {entry['type']:5s} {name}: {entry['count']}"
            if entry["type"] == "span":
                line += f" ({entry['dur_s']:.6f} s total)"
            print(line)
    failed = False
    for name, op, want in requirements:
        have = stats.get(name, {}).get("count", 0)
        ok = have >= want if op == ">=" else have == want
        if not ok:
            print(
                f"SCHEMA: requirement {name}{op}{want} not met "
                f"(found {have})",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main(sys.argv[1:]))
