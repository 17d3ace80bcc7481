"""The in-band spectra carrier: PackedSpectra and the session around it.

A preprocessed batch travels to the workers as seven flat columns
inside the round's one command.  Pinned here:

* ``from_spectra → pickle → to_spectra`` gives back exactly what went
  in (Hypothesis draws the batches; the numpy seed is an explicit
  argument, so a falsifying example prints it, and ``print_blob`` adds
  the reproduction decorator),
* a torn payload is refused in the worker and costs only its own
  batch,
* a session creates nothing under ``TMPDIR`` beyond the arena spill,
* a retried rank is re-sent the same payload and the answer does not
  change,
* the master is the only validator: hostile batches either fail with a
  structured error before any dispatch or equal the serial engine.
"""

import pickle
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from reference import assert_same_results
from repro.errors import (
    ConfigurationError,
    InvalidSpectrumError,
    ServiceError,
    ShardError,
    WorkerError,
)
from repro.index.slm import SLMIndexSettings
from repro.obs import MetricsRegistry
from repro.parallel.faults import FaultPlan, FaultSpec
from repro.parallel.worker import QueryTask, service_query_worker
from repro.search.serial import SerialSearchEngine
from repro.service import SearchService, ServiceConfig, ShardedSearchService
from repro.service import service as service_mod
from repro.spectra.model import Spectrum
from repro.spectra.packed import PackedSpectra
from repro.spectra.preprocess import preprocess_batch

PROPERTY = hsettings(max_examples=150, deadline=None, print_blob=True)


def assert_same_spectra(expected, rebuilt):
    """Field by field over *every* Spectrum field: to_spectra() builds
    instances without the constructor, so a field added to Spectrum and
    not to the wire form must fail here."""
    assert len(expected) == len(rebuilt)
    for a, b in zip(expected, rebuilt):
        assert type(b) is Spectrum
        for field in fields(Spectrum):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, np.ndarray):
                assert type(y) is np.ndarray and y.dtype == np.float64
                assert x.tobytes() == y.tobytes()
            else:
                assert x == y and type(x) is type(y)
        assert a.neutral_mass == b.neutral_mass


def draw_batch(seed, n_spectra, peak_mode, labelled):
    rng = np.random.default_rng(seed)
    batch = []
    for i in range(n_spectra):
        if peak_mode == "none":
            n_peaks = 0
        elif peak_mode == "some-empty":
            n_peaks = int(rng.choice([0, 0, 1, 7, 100]))
        else:
            n_peaks = int(rng.integers(1, 120))
        batch.append(
            Spectrum(
                scan_id=int(rng.integers(0, 2**40)),
                precursor_mz=float(rng.uniform(200.0, 2500.0)),
                charge=int(rng.integers(1, 5)),
                mzs=np.sort(rng.uniform(50.0, 2000.0, n_peaks)),
                intensities=rng.uniform(0.0, 1.0, n_peaks),
                true_peptide=(
                    int(rng.integers(0, 10**6))
                    if labelled and rng.random() < 0.7
                    else None
                ),
            )
        )
    return batch


# -- round trip --------------------------------------------------------


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n_spectra=st.integers(0, 12),
    peak_mode=st.sampled_from(["none", "some-empty", "all"]),
    labelled=st.booleans(),
)
def test_pack_pickle_unpack_is_bit_identical(seed, n_spectra, peak_mode, labelled):
    batch = draw_batch(seed, n_spectra, peak_mode, labelled)
    packed = PackedSpectra.from_spectra(batch)
    assert packed.defect() is None
    assert packed.n_spectra == n_spectra
    assert packed.offsets.dtype == np.int64
    assert int(packed.offsets[-1]) == sum(s.n_peaks for s in batch)
    assert packed.nbytes == (
        16 * sum(s.n_peaks for s in batch) + 8 * (n_spectra + 1) + 32 * n_spectra
    )
    wired = pickle.loads(pickle.dumps(packed, pickle.HIGHEST_PROTOCOL))
    assert wired.defect() is None
    assert_same_spectra(batch, wired.to_spectra())


def test_named_edge_batches_round_trip():
    one = draw_batch(1, 1, "all", labelled=False)
    all_empty = draw_batch(2, 5, "none", labelled=True)
    for batch in ([], one, all_empty):
        wired = pickle.loads(pickle.dumps(PackedSpectra.from_spectra(batch)))
        assert_same_spectra(batch, wired.to_spectra())
    assert one[0].true_peptide is None
    assert PackedSpectra.from_spectra(all_empty).mzs.size == 0


def test_unpacked_peaks_are_views_of_the_columns():
    batch = draw_batch(3, 4, "all", labelled=False)
    packed = PackedSpectra.from_spectra(batch)
    for s in packed.to_spectra():
        assert s.mzs.base is packed.mzs
        assert s.intensities.base is packed.intensities


# -- torn payloads -----------------------------------------------------


def _torn_variants(packed):
    n = packed.n_spectra
    shuffled = packed.offsets.copy()
    shuffled[1], shuffled[2] = shuffled[2], shuffled[1]
    return {
        "truncated peak column": replace(packed, mzs=packed.mzs[:-1]),
        "truncated intensities": replace(
            packed, intensities=packed.intensities[:-3]
        ),
        "n_spectra mismatch (short column)": replace(
            packed, charges=packed.charges[: n - 1]
        ),
        "n_spectra mismatch (long column)": replace(
            packed, scan_ids=np.append(packed.scan_ids, 99)
        ),
        "offsets cut short": replace(packed, offsets=packed.offsets[:-1]),
        "non-monotone offsets": replace(packed, offsets=shuffled),
        "offsets not from zero": replace(packed, offsets=packed.offsets + 1),
    }


def test_torn_payload_is_refused_in_the_worker(tiny_spectra):
    packed = PackedSpectra.from_spectra(preprocess_batch(tiny_spectra))
    assert packed.offsets[1] != packed.offsets[2]  # the swap really tears
    for label, torn in _torn_variants(packed).items():
        assert torn.defect() is not None, label
        task = QueryTask(spectra=torn, top_k=5)
        # The refusal comes before the worker touches its index state.
        with pytest.raises(ServiceError, match="torn batch"):
            service_query_worker(0, 2, {}, task)


def test_torn_batch_fails_only_its_own_future(tiny_db, tiny_spectra, monkeypatch, tmp_path):
    """Tear the second batch between pack and send: its future carries
    the workers' refusal, its neighbours are served, nobody respawns."""
    batches = [list(tiny_spectra), list(tiny_spectra[:7]), list(tiny_spectra[5:])]
    serial = SerialSearchEngine(tiny_db)
    calls = []

    pack = service_mod.preprocess_packed

    def tearing_pack(spectra, config):
        packed = pack(spectra, config)
        calls.append(packed.n_spectra)
        if len(calls) == 2:
            return replace(packed, mzs=packed.mzs[:-1])
        return packed

    monkeypatch.setattr(service_mod, "preprocess_packed", tearing_pack)
    with SearchService(tiny_db, ServiceConfig(n_workers=2, flight_dir=tmp_path)) as service:
        pids = service.worker_pids()
        futures = [service.submit_async(b) for b in batches]
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result(timeout=60))
            except WorkerError as exc:
                outcomes.append(exc)
        assert service.worker_pids() == pids
        assert service.respawn_total == 0
    assert calls == [len(b) for b in batches]
    assert isinstance(outcomes[1], WorkerError)
    assert "ServiceError" in str(outcomes[1]) and "torn batch" in str(outcomes[1])
    for i in (0, 2):
        assert_same_results(serial.run(batches[i]), outcomes[i][0])


# -- nothing on disk ---------------------------------------------------


def test_session_creates_nothing_under_tmpdir(tiny_db, tiny_spectra, tmp_path, monkeypatch):
    """20 batches, four in flight: TMPDIR only ever holds arena spills."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    assert tempfile.gettempdir() == str(tmp_path)

    def foreign():
        return sorted(
            str(p.relative_to(tmp_path))
            for p in tmp_path.rglob("*")
            if not p.relative_to(tmp_path).parts[0].startswith("repro-arena-")
        )

    seen = []
    with SearchService(
        tiny_db, ServiceConfig(n_workers=2, max_pending=4)
    ) as service:
        seen += foreign()
        pending = []
        for i in range(20):
            pending.append(service.submit_async(tiny_spectra[i % 5 :]))
            seen += foreign()  # batches are in flight right now
            if len(pending) == 4:
                pending.pop(0).result(timeout=60)
                seen += foreign()
        for future in pending:
            future.result(timeout=60)
        assert service.n_batches == 20
        seen += foreign()
    seen += foreign()
    assert seen == []


# -- re-dispatch -------------------------------------------------------


def test_retry_resends_the_same_payload_bit_identically(tiny_db, tiny_spectra):
    plan = FaultPlan.scoped(
        FaultSpec(kind="crash", stage="query", rank=1, batch=1)
    )
    config = ServiceConfig(
        n_workers=2, max_retries=1, retry_backoff_s=0.01, fault_plan=plan,
        metrics=MetricsRegistry(),
    )
    reference = SerialSearchEngine(tiny_db).run(tiny_spectra)
    with SearchService(tiny_db, config) as service:
        outcomes = [service.submit(tiny_spectra) for _ in range(3)]
    for results, _ in outcomes:
        assert_same_results(reference, results)
    assert [stats.retries for _, stats in outcomes] == [0, 1, 0]


# -- hostile input at the service boundary -----------------------------


def _blank(s):
    return Spectrum(s.scan_id, s.precursor_mz, s.charge, np.empty(0), np.empty(0))


def _hostile_batches(spectra):
    """name -> (batch, error the master must raise or None)."""
    fresh = lambda: [s.copy() for s in spectra]  # noqa: E731
    out = {}
    batch = fresh()
    batch[3] = _blank(batch[3])
    out["one zero-peak spectrum"] = (batch, None)
    out["all zero-peak"] = ([_blank(s) for s in spectra], None)
    batch = fresh()
    batch[5].scan_id = batch[7].scan_id = batch[2].scan_id
    out["duplicate scan ids"] = (batch, None)
    batch = fresh()
    batch[4].mzs[:] = batch[4].mzs[::-1].copy()
    batch[4].intensities[:] = batch[4].intensities[::-1].copy()
    out["unsorted m/z"] = (batch, None)
    # Spectrum's constructor lets NaN m/z through (every comparison
    # with NaN is false) and the kernels are pinned to tolerate it.
    batch = fresh()
    batch[4].mzs[3] = np.nan
    out["NaN m/z"] = (batch, None)
    # Values written after construction: only a validator that runs at
    # the boundary can see them.
    batch = fresh()
    batch[4].mzs[0] = -5.0
    out["negative m/z"] = (batch, InvalidSpectrumError)
    batch = fresh()
    batch[6].intensities[1] = -1.0
    out["negative intensity"] = (batch, InvalidSpectrumError)
    batch = fresh()
    batch[0].charge = 0
    out["zero charge"] = (batch, InvalidSpectrumError)
    # NaN passes ``< 0`` too, and a NaN at a top-N cut poisons the
    # selection threshold: intensities must be finite.
    for name, bad in (("NaN", np.nan), ("infinite", np.inf)):
        batch = fresh()
        batch[6].intensities[1] = bad
        out[f"{name} intensity"] = (batch, InvalidSpectrumError)
    # NaN passes ``<= 0``; a NaN neutral mass would make the flat
    # precursor window an open search and chunk/shard pruning drop all.
    for name, bad in (("NaN", np.nan), ("infinite", np.inf)):
        batch = fresh()
        batch[2].precursor_mz = bad
        out[f"{name} precursor m/z"] = (batch, InvalidSpectrumError)
    return out


def _dispatched_batches(service):
    return {
        r["batch"]
        for r in service.flight_recorder.records()
        if r.get("name") == "dispatch"
    }


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_hostile_batches_fail_structured_or_equal_serial(tiny_db, tiny_spectra):
    serial = SerialSearchEngine(tiny_db)
    with SearchService(
        tiny_db, ServiceConfig(n_workers=2, metrics=MetricsRegistry())
    ) as service:
        pids = service.worker_pids()
        with pytest.raises(ConfigurationError, match="empty"):
            service.submit([])
        n_served = 0
        for name, (batch, error) in _hostile_batches(tiny_spectra).items():
            if error is None:
                results, _ = service.submit_async(batch).result(timeout=60)
                assert_same_results(serial.run(batch), results)
                n_served += 1
            else:
                with pytest.raises(error):
                    serial.run(batch)
                before = _dispatched_batches(service)
                with pytest.raises(error):
                    service.submit_async(batch).result(timeout=60)
                # Refused on the master: no round was dispatched for it.
                assert _dispatched_batches(service) == before, name
        assert service.n_batches == n_served
        assert service.worker_pids() == pids
        # The session is still good for an ordinary batch.
        results, _ = service.submit(tiny_spectra)
        assert_same_results(serial.run(tiny_spectra), results)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_hostile_batches_through_the_sharded_fleet(tiny_db, tiny_spectra, tmp_path):
    serial = SerialSearchEngine(tiny_db)
    config = ServiceConfig(n_workers=1, metrics=MetricsRegistry(), flight_dir=tmp_path)
    with ShardedSearchService(tiny_db, config, n_shards=2) as fleet:
        with pytest.raises(ConfigurationError, match="empty"):
            fleet.submit([])
        for name, (batch, error) in _hostile_batches(tiny_spectra).items():
            if error is None:
                results, _ = fleet.submit_async(batch).result(timeout=60)
                assert_same_results(serial.run(batch), results)
            else:
                # The shard whose master refused the batch is named; the
                # cause is the same structured validation error.
                with pytest.raises(ShardError, match="shard") as excinfo:
                    fleet.submit_async(batch).result(timeout=60)
                assert excinfo.value.shard is not None, name
                # No worker failed, so there is no black box to cut.
                assert excinfo.value.flight_record is None, name
        results, _ = fleet.submit(tiny_spectra)
        assert_same_results(serial.run(tiny_spectra), results)
        assert fleet.respawn_total == 0
    assert not list(tmp_path.glob("repro-flight-*"))


def test_windowed_sessions_refuse_a_nan_precursor(tiny_db, tiny_spectra, tmp_path):
    """Windowed routing and chunk pruning both compare against the
    neutral mass: a NaN must be refused, not routed nowhere and
    answered with silence."""
    windowed = SLMIndexSettings(precursor_tolerance=3.0)
    serial = SerialSearchEngine(tiny_db, windowed)
    batch = [s.copy() for s in tiny_spectra]
    batch[2].precursor_mz = np.nan
    config = ServiceConfig(
        n_workers=1, index=windowed, metrics=MetricsRegistry(), flight_dir=tmp_path
    )
    with SearchService(tiny_db, config) as service:
        with pytest.raises(InvalidSpectrumError, match="precursor"):
            service.submit(batch)
        results, _ = service.submit(tiny_spectra)
        assert_same_results(serial.run(tiny_spectra), results)
    with ShardedSearchService(tiny_db, config, n_shards=2) as fleet:
        with pytest.raises(ShardError, match="shard") as excinfo:
            fleet.submit(batch)
        assert excinfo.value.flight_record is None
        results, _ = fleet.submit(tiny_spectra)
        assert_same_results(serial.run(tiny_spectra), results)
    assert not list(tmp_path.glob("repro-flight-*"))
