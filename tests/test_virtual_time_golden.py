"""Pinned virtual-time outputs of the simulated engine, bit for bit.

Every figure of the paper's load-imbalance and speedup study (Figs. 6,
8, 11) is read off ``DistributedSearchEngine``'s virtual clocks.  This
file freezes those clocks over a policy × rank-count × machine-model
matrix: for each run, the ``float.hex`` of every ``phase_times`` entry,
of every rank's ``build_time`` / ``query_time`` / ``comm_time`` and of
the Eq.-1 load imbalance, together with the rank's four work counters,
are hashed into one digest.  A change to how ranks are executed or how
collectives are charged must leave every digest unchanged.

The PSM report is the same for every run (bit-identity to the serial
engine), so one report digest is pinned for the whole matrix.
"""

import hashlib
import io

import pytest

from repro.bench.workloads import WorkloadConfig, make_workload
from repro.search.engine import DistributedSearchEngine, EngineConfig
from repro.search.metrics import load_imbalance
from repro.search.report import write_psm_report

POLICIES = ["chunk", "cyclic", "random", "lpt"]
RANKS = [1, 2, 4, 16]
MACHINES = {
    "homogeneous": {"machine_jitter": 0.0},
    "jitter": {},
    "cores4": {"cores_per_rank": 4},
}

REPORT_DIGEST = "63e7779fd668699eee02d994adcc11a7ead925e5ad5321682fc8c4d470ff96fd"

RECORD_DIGESTS = {
    "chunk/1/homogeneous": "54c9c86086acb38b24eb8d220c310f7e0c366ac7d27369552ac4a9d7a2507042",
    "chunk/1/jitter": "9f1b078ac05de6d98b816596017c51b5d732f156232951c1ba11dc5c93ed7041",
    "chunk/1/cores4": "c874eee0ac63cf3c29dba27aafece6b69808b7224dd4c87a6f7888e021ac182b",
    "chunk/2/homogeneous": "52033b46b3b1eb070316ffcd7fc47d86abed0dcba5307e5bc269669149f4b7cd",
    "chunk/2/jitter": "7a5e3cd54ee40030c253524fdf2daea48640e5f89f1dec7158016b242be32e5e",
    "chunk/2/cores4": "0629241c96d2236d72b5a3fa29fc56f7a6141bf38318e13d676d139e0d091b2a",
    "chunk/4/homogeneous": "0d547cebb928326467c29c4de3bf69ad745e9026077863c953f5ceb429ea7f23",
    "chunk/4/jitter": "d6838c3b6913eaf0136aed496b0a54323a1db941132356e2333cbe88b686198a",
    "chunk/4/cores4": "2831f512ff8656f8e139db1a6dca8c4e325c9f97e24ecf82488fcc65c5b0222c",
    "chunk/16/homogeneous": "22f7690db83fd0ab73b0decd4c13d184050a2dbe4ddb19e077919c5aff3924d7",
    "chunk/16/jitter": "08a688f6b0425727879625d06bf79236eebd1c34a9d9d041be11bc2bad90a2c5",
    "chunk/16/cores4": "adce4583f78e074ce6794a016007b5c2aa48fbc1a5216e279352538c9c4b2b67",
    "cyclic/1/homogeneous": "54c9c86086acb38b24eb8d220c310f7e0c366ac7d27369552ac4a9d7a2507042",
    "cyclic/1/jitter": "9f1b078ac05de6d98b816596017c51b5d732f156232951c1ba11dc5c93ed7041",
    "cyclic/1/cores4": "c874eee0ac63cf3c29dba27aafece6b69808b7224dd4c87a6f7888e021ac182b",
    "cyclic/2/homogeneous": "98b22ece6caaf8ae3aa042baa95be836e1fc1d2ee8b6b5ed57606377bfbd2b09",
    "cyclic/2/jitter": "dc8d2b377950b89e17085ea6bd5e0380f4da857406f30441180175325128e5d9",
    "cyclic/2/cores4": "5f35c25e57915015ebf232d9c53c4f5fff2449d4fdc86416ddece52a3777bc39",
    "cyclic/4/homogeneous": "05d0200614caf43f9a1cb38e2f3b01089b886bb3946efd747ec25e9fdf2394a0",
    "cyclic/4/jitter": "b457fc97c01891afd3342a16a3a4f5962b802d1181345acd2e38afa74ca02d14",
    "cyclic/4/cores4": "62044b497edf13f747f6538633e5f6c65d828a0cde645bf779a19bab1a16aeb3",
    "cyclic/16/homogeneous": "64e953866815003132095e6f7be8882a615ee4998b88c504ae5b1898431230eb",
    "cyclic/16/jitter": "db0be101a9766f41c83af7fbffddb3e1644e70e26b72136d0daaef72a0a192e6",
    "cyclic/16/cores4": "d0e8cc289f72d86d050eb48b77dcd606dbece08a4781fd4f265b483dfc5f22b9",
    "random/1/homogeneous": "54c9c86086acb38b24eb8d220c310f7e0c366ac7d27369552ac4a9d7a2507042",
    "random/1/jitter": "9f1b078ac05de6d98b816596017c51b5d732f156232951c1ba11dc5c93ed7041",
    "random/1/cores4": "c874eee0ac63cf3c29dba27aafece6b69808b7224dd4c87a6f7888e021ac182b",
    "random/2/homogeneous": "c2fccb4e1925efc326bfa6ca134cfaa5f73ce865627d4307ec82b49233199371",
    "random/2/jitter": "1c27e16a08821b355f2dcb5e0e3abf2136cc36838edb9818df11f25801cf1a8e",
    "random/2/cores4": "ad83a1a4a65f27e9a91b73c484cfba4cc753f3eb5f1df15a0c085238d0863650",
    "random/4/homogeneous": "b9ade7d365ace3c24e5a03a15bb9e68da93f3ed79d1bc7d2486c90fe4099f207",
    "random/4/jitter": "ba40af25db769ae4c60460f91e8b060ced14ad10db5a73da73ec20fd9848c8ed",
    "random/4/cores4": "a4996faeef41c014515985c6f9f7eaba0f3cb639e965c6f5fe8b3a6ee7815aa1",
    "random/16/homogeneous": "87cedaa8a7abc6f5c143df3a686ba00ae243ba7e4c3e9fe0387eb069e9f98724",
    "random/16/jitter": "1b23937e4d39cc3df697286c6214c5e3308b3fc18f4634732484c52121e55629",
    "random/16/cores4": "201fb4541679f9372b1fe58f4691b759c8d68cd1ee7086fccd959109c52facd1",
    "lpt/1/homogeneous": "54c9c86086acb38b24eb8d220c310f7e0c366ac7d27369552ac4a9d7a2507042",
    "lpt/1/jitter": "9f1b078ac05de6d98b816596017c51b5d732f156232951c1ba11dc5c93ed7041",
    "lpt/1/cores4": "c874eee0ac63cf3c29dba27aafece6b69808b7224dd4c87a6f7888e021ac182b",
    "lpt/2/homogeneous": "7bd010385148b144393e1df8ba8db1de01253804c767c916b60d1917b2d5b0a4",
    "lpt/2/jitter": "b1a10e4fef932115c9bdf30d71df22718abd84fb1cfae38bfee19221d26d168b",
    "lpt/2/cores4": "a170d7fefb88635f2d515fd67eae79bf8625c88803e73e75572bda9321445f4b",
    "lpt/4/homogeneous": "ac295812c77fbca56bc34e9e9ff3066920a01e272206ac367848987334b26921",
    "lpt/4/jitter": "a1d7f918470b34d9f499f311981bd134345fc1a5e68b9f351e74af70bd82a9dc",
    "lpt/4/cores4": "b5e6c351b4651a032c9b6a8ddd44fd8849a8c940b258d419c5ad246af183f3ab",
    "lpt/16/homogeneous": "9bfd7c0fd4f5017d9647d6362441e0dba07fb1a42f90b9ba4e84c6a80a132396",
    "lpt/16/jitter": "9fd9e77d88bd12ac10c3b3b4cfddfa992ee8041990387dcde1f1554f874f6542",
    "lpt/16/cores4": "52e6df47e4beaef60d3b089bbe6d36e7766a1150fc8cf4ab4dfadafc865d35dd",
}


@pytest.fixture(scope="module")
def workload():
    return make_workload(WorkloadConfig(size_m=0.8, n_spectra=10, seed=3))


def run_record(results) -> str:
    """The canonical text of one run's virtual-time outputs."""
    lines = [
        f"phase {name} {value.hex()}"
        for name, value in sorted(results.phase_times.items())
    ]
    for rs in results.rank_stats:
        lines.append(
            f"rank {rs.rank} build {rs.build_time.hex()} "
            f"query {rs.query_time.hex()} comm {rs.comm_time.hex()} "
            f"buckets {rs.buckets_scanned} ions {rs.ions_scanned} "
            f"cands {rs.candidates_scored} residues {rs.residues_scored}"
        )
    lines.append(f"li {load_imbalance(results.query_times).hex()}")
    return "\n".join(lines) + "\n"


def report_digest(results, database) -> str:
    buf = io.StringIO()
    write_psm_report(buf, results, database.entries)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def run(workload, policy: str, n_ranks: int, machine: str):
    config = EngineConfig(n_ranks=n_ranks, policy=policy, **MACHINES[machine])
    return DistributedSearchEngine(workload.database, config).run(workload.spectra)


@pytest.mark.parametrize("machine", list(MACHINES))
@pytest.mark.parametrize("n_ranks", RANKS)
@pytest.mark.parametrize("policy", POLICIES)
def test_virtual_time_matches_pinned_digest(workload, policy, n_ranks, machine):
    results = run(workload, policy, n_ranks, machine)
    record = run_record(results)
    key = f"{policy}/{n_ranks}/{machine}"
    assert hashlib.sha256(record.encode()).hexdigest() == RECORD_DIGESTS[key], record
    assert report_digest(results, workload.database) == REPORT_DIGEST
