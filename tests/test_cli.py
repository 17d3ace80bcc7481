"""Tests for the command-line interface (invoked in-process)."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.db.fasta import read_fasta, read_grouped_fasta
from repro.search.report import read_psm_report
from repro.spectra.ms2 import read_ms2

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated data directory shared by the CLI tests."""
    out = tmp_path_factory.mktemp("cli")
    rc = main([
        "generate", "--out-dir", str(out),
        "--families", "4", "--spectra", "12", "--seed", "5",
    ])
    assert rc == 0
    return out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["search", "--fasta", "x", "--ms2", "y",
                                   "--policy", "bogus"])


def test_generate_outputs(workspace):
    records = list(read_fasta(workspace / "proteome.fasta"))
    spectra = list(read_ms2(workspace / "run.ms2"))
    assert len(records) >= 4
    assert len(spectra) == 12


def test_digest_command(workspace):
    out = workspace / "peptides.fasta"
    rc = main([
        "digest", "--fasta", str(workspace / "proteome.fasta"),
        "--out", str(out),
    ])
    assert rc == 0
    peptides = list(read_fasta(out))
    assert len(peptides) > 50
    seqs = [p.sequence for p in peptides]
    assert len(set(seqs)) == len(seqs)  # deduplicated


def test_group_command(workspace):
    peptides = workspace / "peptides.fasta"
    if not peptides.exists():
        main(["digest", "--fasta", str(workspace / "proteome.fasta"),
              "--out", str(peptides)])
    out = workspace / "clustered.fasta"
    rc = main(["group", "--fasta", str(peptides), "--out", str(out),
               "--criterion", "2", "--gsize", "20"])
    assert rc == 0
    seqs, sizes = read_grouped_fasta(out)
    assert sum(sizes) == len(seqs)
    assert max(sizes) <= 20


def test_search_command_with_report(workspace, capsys):
    report = workspace / "psms.tsv"
    rc = main([
        "search",
        "--fasta", str(workspace / "proteome.fasta"),
        "--ms2", str(workspace / "run.ms2"),
        "--ranks", "3", "--policy", "cyclic",
        "--report", str(report),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cPSMs" in out and "LI" in out
    psms = read_psm_report(report)
    assert psms
    scans = {p.scan_id for p in psms}
    assert scans <= set(range(1, 13))


def test_search_process_backend_matches_simulated(workspace, capsys):
    """--backend process returns the same PSM report as simulated."""
    sim_report = workspace / "psms_sim.tsv"
    proc_report = workspace / "psms_proc.tsv"
    common = [
        "search",
        "--fasta", str(workspace / "proteome.fasta"),
        "--ms2", str(workspace / "run.ms2"),
        "--ranks", "2", "--policy", "cyclic",
    ]
    assert main(common + ["--report", str(sim_report)]) == 0
    assert main(
        common + ["--backend", "process", "--report", str(proc_report)]
    ) == 0
    out = capsys.readouterr().out
    assert "backend: process" in out and "(real)" in out
    sim = [(p.scan_id, p.entry_id, p.score) for p in read_psm_report(sim_report)]
    proc = [(p.scan_id, p.entry_id, p.score) for p in read_psm_report(proc_report)]
    assert sim == proc


def test_search_empty_ms2_writes_header_only_report(
    workspace, capsys, monkeypatch
):
    """An empty MS2 file exits 0 on both backends with identical
    header-only reports; the process backend spawns no worker."""
    import repro.parallel.persistent as persistent

    def no_spawn(*args, **kwargs):
        raise AssertionError("a worker was spawned for an empty run")

    monkeypatch.setattr(persistent, "spawn_worker", no_spawn)
    empty = workspace / "empty.ms2"
    empty.write_text("")
    reports = {}
    for backend in ("simulated", "process"):
        reports[backend] = workspace / f"psms_empty_{backend}.tsv"
        assert main([
            "search",
            "--fasta", str(workspace / "proteome.fasta"),
            "--ms2", str(empty),
            "--ranks", "3", "--policy", "cyclic",
            "--backend", backend,
            "--report", str(reports[backend]),
        ]) == 0
    out = capsys.readouterr().out
    assert "queries: 0 spectra" in out and "0 cPSMs" in out
    sim = reports["simulated"].read_bytes()
    assert reports["process"].read_bytes() == sim
    assert len(sim.splitlines()) == 1  # the header alone


@pytest.fixture(scope="module")
def nan_ms2(workspace):
    """The workspace run with one peak intensity replaced by NaN."""
    lines = (workspace / "run.ms2").read_text().splitlines()
    first_peak = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    lines[first_peak] = lines[first_peak].split()[0] + " nan"
    path = workspace / "nan.ms2"
    path.write_text("\n".join(lines) + "\n")
    return path


_NAN = "intensities must be finite and non-negative"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "--ranks", "0"], "n_ranks must be >= 1, got 0"),
        (["search", "--top-k", "0"], "top_k must be >= 1, got 0"),
        (["serve", "--ranks", "0"], "n_workers must be >= 1, got 0"),
        (["serve", "--shards", "3", "--shard-boundaries", "500"],
         "3 shards need 2 boundaries, got 1"),
        (["serve", "--min-workers", "3", "--max-workers", "2"],
         "min_workers 3 > max_workers 2"),
        (["search", "NAN"], _NAN),
        (["search", "NAN", "--backend", "process", "--ranks", "2"], _NAN),
        (["serve", "NAN"], _NAN),
    ],
    ids=[
        "search-ranks-0", "search-top-k-0", "serve-ranks-0",
        "serve-shard-boundaries", "serve-worker-bounds", "search-nan",
        "search-process-nan", "serve-nan",
    ],
)
def test_input_errors_are_one_line_errors(
    workspace, nan_ms2, capsys, argv, message
):
    """Bad parameters and invalid spectra exit 1 with one stderr line
    ``repro <cmd>: <message>`` and no traceback."""
    command, rest = argv[0], argv[1:]
    ms2 = workspace / "run.ms2"
    if rest[:1] == ["NAN"]:
        ms2, rest = nan_ms2, rest[1:]
    source = ["--fasta", str(workspace / "proteome.fasta")]
    source += ["--ms2", str(ms2)] if command == "search" else ["--batch", str(ms2)]
    rc = main([command] + source + rest)
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"repro {command}: {message}\n"
    assert "Traceback" not in err


def test_serve_has_no_backend_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["serve", "--fasta", "x", "--batch", "y", "--backend", "process"]
        )


def test_search_lpt_policy(workspace, capsys):
    rc = main([
        "search",
        "--fasta", str(workspace / "proteome.fasta"),
        "--ms2", str(workspace / "run.ms2"),
        "--ranks", "2", "--policy", "lpt",
    ])
    assert rc == 0
    assert "policy lpt" in capsys.readouterr().out


def test_search_compare_policies(workspace, capsys):
    rc = main([
        "search",
        "--fasta", str(workspace / "proteome.fasta"),
        "--ms2", str(workspace / "run.ms2"),
        "--ranks", "2", "--compare-policies",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    for policy in ("chunk", "cyclic", "random", "lpt"):
        assert policy in out


def test_serve_command_matches_search(workspace, capsys):
    """`serve` over three batches equals one-shot `search` per batch."""
    report_dir = workspace / "serve_reports"
    oneshot = workspace / "psms_oneshot.tsv"
    rc = main([
        "serve",
        "--fasta", str(workspace / "proteome.fasta"),
        "--batch", str(workspace / "run.ms2"),
        "--batch", str(workspace / "run.ms2"),
        "--batch", str(workspace / "run.ms2"),
        "--ranks", "2", "--policy", "cyclic",
        "--report-dir", str(report_dir),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "resident workers" in out and "steady-state batch latency" in out
    assert main([
        "search",
        "--fasta", str(workspace / "proteome.fasta"),
        "--ms2", str(workspace / "run.ms2"),
        "--ranks", "2", "--policy", "cyclic",
        "--report", str(oneshot),
    ]) == 0
    expected = [
        (p.scan_id, p.entry_id, p.score) for p in read_psm_report(oneshot)
    ]
    for i in range(3):
        got = [
            (p.scan_id, p.entry_id, p.score)
            for p in read_psm_report(report_dir / f"batch_{i:04d}.tsv")
        ]
        assert got == expected


def test_serve_requires_batches(workspace, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    rc = main(["serve", "--fasta", str(workspace / "proteome.fasta")])
    assert rc == 2
    assert "no batches" in capsys.readouterr().err


def test_serve_requires_exactly_one_database_source(workspace):
    with pytest.raises(SystemExit, match="exactly one"):
        main(["serve", "--batch", str(workspace / "run.ms2")])
    with pytest.raises(SystemExit, match="exactly one"):
        main([
            "serve", "--fasta", str(workspace / "proteome.fasta"),
            "--index", str(workspace / "nope"),
            "--batch", str(workspace / "run.ms2"),
        ])


def test_serve_pipeline_matches_sequential(workspace, capsys):
    """--pipeline streams the same batches and writes identical PSMs."""
    seq_dir = workspace / "serve_seq"
    pipe_dir = workspace / "serve_pipe"
    common = [
        "serve",
        "--fasta", str(workspace / "proteome.fasta"),
        "--batch", str(workspace / "run.ms2"),
        "--batch", str(workspace / "run.ms2"),
        "--batch", str(workspace / "run.ms2"),
        "--ranks", "2", "--policy", "cyclic",
    ]
    assert main(common + ["--report-dir", str(seq_dir)]) == 0
    assert main(common + ["--pipeline", "--report-dir", str(pipe_dir)]) == 0
    out = capsys.readouterr().out
    assert "pipelined submits" in out and "pipeline: depth up to" in out
    for i in range(3):
        seq = [
            (p.scan_id, p.entry_id, p.score)
            for p in read_psm_report(seq_dir / f"batch_{i:04d}.tsv")
        ]
        pipe = [
            (p.scan_id, p.entry_id, p.score)
            for p in read_psm_report(pipe_dir / f"batch_{i:04d}.tsv")
        ]
        assert seq == pipe and seq


@pytest.fixture(scope="module")
def archive(workspace):
    """`repro index` output for the workspace FASTA: an archive directory."""
    out = workspace / "saved_index"
    assert main([
        "index", "--fasta", str(workspace / "proteome.fasta"),
        "--out", str(out),
    ]) == 0
    return out


def _serve_reports(workspace, source, out_dir, *extra):
    assert main(
        ["serve", *source,
         "--batch", str(workspace / "run.ms2"),
         "--batch", str(workspace / "run.ms2"),
         "--ranks", "2", "--policy", "cyclic",
         "--report-dir", str(out_dir), *extra]
    ) == 0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_index_then_serve_from_archive_matches_fasta_start(
    workspace, archive, capsys
):
    """`repro index` + `serve --index` writes byte-identical PSM TSVs to
    `serve --fasta`: the archive start path plans and searches identically."""
    assert (archive / "database.json").is_file()
    from_fasta = _serve_reports(
        workspace, ["--fasta", str(workspace / "proteome.fasta")],
        workspace / "serve_from_fasta",
    )
    from_index = _serve_reports(
        workspace, ["--index", str(archive)], workspace / "serve_from_index"
    )
    out = capsys.readouterr().out
    assert "from index archive" in out
    assert "attach the archive's arena store" in out
    assert from_fasta == from_index and len(from_fasta) == 2


def test_sharded_serve_from_archive_matches_fasta_start(workspace, archive):
    """With --shards 2 the archive start still writes the FASTA start's
    PSM TSVs byte for byte (each shard builds its own arena)."""
    from_fasta = _serve_reports(
        workspace, ["--fasta", str(workspace / "proteome.fasta")],
        workspace / "sharded_from_fasta", "--shards", "2",
    )
    from_index = _serve_reports(
        workspace, ["--index", str(archive)],
        workspace / "sharded_from_index", "--shards", "2",
    )
    assert from_fasta == from_index and len(from_fasta) == 2


def test_index_refuses_a_non_empty_out(workspace, archive):
    before = {p.name: p.stat().st_mtime_ns for p in archive.iterdir()}
    with pytest.raises(SystemExit, match="not an empty directory"):
        main([
            "index", "--fasta", str(workspace / "proteome.fasta"),
            "--out", str(archive),
        ])
    assert {p.name: p.stat().st_mtime_ns for p in archive.iterdir()} == before


def test_serve_from_a_missing_archive_is_a_one_line_error(workspace, tmp_path, capsys):
    rc = main([
        "serve", "--index", str(tmp_path / "absent"),
        "--batch", str(workspace / "run.ms2"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no readable index archive" in err


def test_serve_drains_on_sigterm(workspace, tmp_path):
    """SIGTERM to a stdin-fed `serve` drains like Ctrl-C: the process
    exits, the trace ends with session.close, and its spill is gone."""
    reports, trace = tmp_path / "reports", tmp_path / "trace.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), TMPDIR=str(tmp_path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--fasta", str(workspace / "proteome.fasta"), "--ranks", "2",
         "--trace", str(trace), "--report-dir", str(reports)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, text=True,
    )

    def owned_spills():
        return [
            d for d in tmp_path.glob("repro-arena-*")
            if (d / "owner.pid").read_text().strip() == str(proc.pid)
        ]

    try:
        proc.stdin.write(f"{workspace / 'run.ms2'}\n")
        proc.stdin.flush()
        deadline = time.monotonic() + 120
        while not (reports / "batch_0000.tsv").exists():
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert owned_spills()  # the session is open, waiting on stdin
        os.kill(proc.pid, signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 130, err
    assert "interrupted" in err
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert (records[-1]["type"], records[-1]["kind"]) == ("event", "session.close")
    assert not owned_spills()


def test_figures_command(capsys):
    rc = main(["figures", "--sizes", "0.7", "--spectra", "8", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fig. 6" in out and "Fig. 8" in out and "Fig. 11" in out
    assert "chunk" in out and "cyclic" in out


def test_serve_resilience_flags_parse():
    args = build_parser().parse_args([
        "serve", "--fasta", "x", "--batch", "y",
        "--max-retries", "3", "--degraded-ok", "--hedge-after", "0.5",
    ])
    assert args.max_retries == 3
    assert args.degraded_ok is True
    assert args.hedge_after == 0.5
    # Defaults: one retry, fail loud, no hedging.
    args = build_parser().parse_args(["serve", "--fasta", "x", "--batch", "y"])
    assert args.max_retries == 1
    assert args.degraded_ok is False
    assert args.hedge_after is None


def test_serve_table_has_resilience_columns(workspace, capsys):
    rc = main([
        "serve", "--fasta", str(workspace / "proteome.fasta"),
        "--ranks", "2", "--batch", str(workspace / "run.ms2"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    header = next(line for line in out.splitlines() if "retries" in line)
    for column in ("retries", "hedged", "respawn", "degraded"):
        assert column in header


def test_worker_error_prints_one_line_diagnosis(capsys, monkeypatch):
    """A WorkerError reaching main() becomes a one-line stderr
    diagnosis (rank, exit code, retry count) + exit 1 — no traceback."""
    import repro.cli as cli
    from repro.errors import ServiceError, WorkerError

    def boom(args):
        raise WorkerError(
            "worker 1 died mid-batch without reporting (exit code 23)",
            rank=1, exit_code=23, retries=2,
        )

    monkeypatch.setitem(cli._COMMANDS, "figures", boom)
    assert main(["figures"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "repro figures:" in err
    assert "rank 1" in err and "exit code 23" in err and "2 retries" in err

    def misuse(args):
        raise ServiceError("submit on a closed service")

    monkeypatch.setitem(cli._COMMANDS, "figures", misuse)
    assert main(["figures"]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "repro figures: submit on a closed service"
