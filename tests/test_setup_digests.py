"""Pinned set-up outputs: entry table, grouping, arena, plans, bucket sort and rank indexes, byte for byte.

The set-up kernels (single-pass database build, vectorised Algorithm 1,
batched fragment arena) replaced per-item Python loops under a promise
of byte-identical outputs.  The sha256 digests below were recorded with
the per-item implementations on fixed databases; every downstream
consumer (partitioning, the mapping table, rank indexes, scores) is a
pure function of these tables and arrays, so equal digests mean every
plan and every search result is unchanged by construction.
"""

import hashlib

import numpy as np
import pytest

from repro.db.fasta import FastaRecord
from repro.db.proteome import ProteomeConfig, generate_proteome
from repro.index.chunks import ChunkedIndex
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search.database import DatabaseConfig, IndexedDatabase
from repro.search.engine import make_lbe_plan
from repro.search.rank import build_rank_index

PINNED = {
    "grouping.order": "3caf4665c4c59d11622e6dceb916654db89c3c0c20c65a7fbf6ede1baf850e65",
    "grouping.group_sizes": "6e5496b59d4984f4632b9450421dc244b96673256128787b6e4c5fadc768021a",
    "arena.mzs": "526bef1cea9c242b8055f97d39fc0589f8fe618a650be53bcaca477a7eb8a3fe",
    "arena.offsets": "779d42a2cb1f2ad6444ae5a68f727597338a7af7890adcfedb5237c14a5da27b",
    "arena.lengths": "d6180f7f45913473e15b69ece3d72cc306f3c42038dca81e82e7110583673aa5",
    "arena.masses": "8425578e8e1c5a76f3c6e639cbab2e46ea5df2f319f41ce6b5d0b4ad288c7f26",
}

PLAN_DIGESTS = {
    "chunk/2": "5a52b8788c103bb079b8cdb6e6102383e55ebd99ac7d6c5229441597966f381f",
    "chunk/3": "242f35e9b3eae29575915d8cfa6a4a0fc9f98e9283e27165792f1ca3fad700cc",
    "cyclic/2": "5adfecdbd605c7d58fff7c48bdbb22d7bf3cddaa6196de85cc61d2972fbd5791",
    "cyclic/3": "25a8e6148ea3f8a415947a4171f6829c82f338876e4b3e4c2370bd6dcd3b17ce",
    "random/2": "37ada393c82cf903373b8aed87193d7127ca0f032a5b65b8383efd7260e71be5",
    "random/3": "5ccb77dff51648161acf912d9a400fe25190900abf55a2bbad1f86add5a74485",
    "lpt/2": "0ea154abadaec47b73aa0d4c49de590079605f0a64f0dfac45b29518ac6d16bd",
    "lpt/3": "55d7d1f722240a8cfdbde203612002170f008a40df829e905b6e2ff685560e96",
}


ENTRY_TABLE_DIGESTS = {
    "families16": "95dc2be03af7e42add903c7b138b3531e26e5f4587fba062bcde707753a7f10b",
    "families16/unbounded": "a63ad606698439e21c62f457d395c9518ac706fa3b2b76a6641b92f5c66b7ab5",
    "edge_records": "b8966e589a88a93f7b4ebefe39f86173eb4ba8ec3b4655f282a567929ac57169",
}

PROTEOME = ProteomeConfig(n_families=16, seed=4242)


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def entry_table_digest(db) -> str:
    """sha256 over every entry (sequence, mods, protein id, mass) and the offsets.

    Floats enter as ``float.hex`` and positions/ids with their Python
    type, so a one-ulp mass change or an ``np.int64`` position shows.
    """
    h = hashlib.sha256()
    for pep in db.entries:
        mods = ",".join(
            f"{type(pos).__name__}{pos}:{float.hex(delta)}" for pos, delta in pep.mods
        )
        h.update(
            f"{pep.sequence}|{mods}|{type(pep.protein_id).__name__}"
            f"{pep.protein_id}|{float.hex(pep.mass)}\n".encode()
        )
    h.update(digest(db.entry_offsets).encode())
    return h.hexdigest()


def edge_records():
    """Protein records that hit every branch of the digest's input handling.

    Lowercase residues, ambiguous residues (X/B/Z) that split a protein,
    KP/RP sites trypsin must not cut, peptides exactly at and one past
    each end of the 6..40 length window, a 40-mer above the 5000 Da
    mass cap, and a peptide shared by two proteins (dedup keeps the
    first protein id).  Synthetic proteins, partly lowercased and with
    ambiguous residues spliced in, add volume.
    """
    handmade = [
        FastaRecord("kp_rp", "AAAAAKPGGGGGRPCCCCCKDDDDDRPEEEEEKFFFFFR"),
        FastaRecord("lower", "mnqkcmaaaagggggkmmmnnnqqqrttttttk"),
        FastaRecord("ambiguous", "GGGGGKXAAAAAAKBCCCCCCRZDDDDDDKAAXA"),
        FastaRecord(
            "length_edges",
            "GGGGK" + "GGGGGK" + "A" * 39 + "K" + "A" * 40 + "K" + "S" * 38 + "R",
        ),
        FastaRecord("mass_cap", "W" * 39 + "K" + "MNQKCMK"),
        FastaRecord("shared", "PEPTIDEKMNQKCMAAAGGGGGKFFFFFR"),
        FastaRecord("shared_again", "LLLLLLKMNQKCMAAAGGGGGKYYYYYR"),
    ]
    synthetic = []
    for i, rec in enumerate(generate_proteome(ProteomeConfig(n_families=3, seed=11)).records):
        seq = rec.sequence
        cut = (7 * i + 5) % max(len(seq) - 1, 1)
        seq = seq[:cut].lower() + "XBZ"[i % 3] + seq[cut:]
        synthetic.append(FastaRecord(rec.header, seq))
    return handmade + synthetic


@pytest.fixture(scope="module")
def database():
    return IndexedDatabase.build(DatabaseConfig(proteome=PROTEOME))


def test_entry_table_matches_pinned_digest(database):
    assert entry_table_digest(database) == ENTRY_TABLE_DIGESTS["families16"]


def test_unbounded_variant_entry_table_matches_pinned_digest():
    db = IndexedDatabase.build(
        DatabaseConfig(proteome=PROTEOME, max_variants_per_peptide=None)
    )
    assert entry_table_digest(db) == ENTRY_TABLE_DIGESTS["families16/unbounded"]


def test_records_entry_table_matches_pinned_digest():
    db = IndexedDatabase.build(records=edge_records())
    assert entry_table_digest(db) == ENTRY_TABLE_DIGESTS["edge_records"]


def setup_digests(db) -> dict:
    grouping = db.group_bases()
    arena = db.arena_for()
    return {
        "grouping.order": digest(grouping.order),
        "grouping.group_sizes": digest(grouping.group_sizes),
        "arena.mzs": digest(arena.mzs),
        "arena.offsets": digest(arena.offsets),
        "arena.lengths": digest(arena.lengths),
        "arena.masses": digest(arena.masses),
    }


def plan_digest(db, policy: str, n_ranks: int) -> str:
    plan = make_lbe_plan(db, n_ranks=n_ranks, policy=policy)
    return digest(*(plan.rank_global_ids(r) for r in range(n_ranks)))


def test_grouping_and_arena_match_pinned_digests(database):
    assert setup_digests(database) == PINNED


@pytest.mark.parametrize("n_ranks", [2, 3])
@pytest.mark.parametrize("policy", ["chunk", "cyclic", "random", "lpt"])
def test_plan_manifests_match_pinned_digests(database, policy, n_ranks):
    assert plan_digest(database, policy, n_ranks) == PLAN_DIGESTS[f"{policy}/{n_ranks}"]


# -- bucket sort order and the rank indexes built over it ---------------

#: Recorded with the stable-argsort bucket sort.  Each rank index sorts
#: its own sub-arena (ties in manifest-position order), so the rank
#: digests pin the tie order inside each bucket as well as the
#: bucket-major layout.
SORT_DIGESTS = {
    "arena.sort_order/0.01": "d391a426ba4bc9fa384085b81c42166189094886477de7d76c87682ed56d7afe",
    "slm.rank0/cyclic/2": "a5dac58148586ccf7c10ade4607619cd0ae9bf5ad4112dec17cc86eac33049df",
    "chunked.rank0/cyclic/2": "ffd7b07a4ac156174b8d19323400cfae29ce2b27f16e302dbe193af6dfdc4475",
}


def rank0_index(db, settings):
    """Rank 0's index over the master arena, built the way a worker builds it."""
    arena = db.arena_for(settings.fragmentation)
    plan = make_lbe_plan(db, n_ranks=2, policy="cyclic")
    return build_rank_index(arena, plan.rank_global_ids(0), settings)[1]


def test_sort_order_matches_pinned_digest(database):
    _, order = database.arena_for().quantize(0.01)
    assert digest(order) == SORT_DIGESTS["arena.sort_order/0.01"]


def test_open_search_rank_index_matches_pinned_digest(database):
    index = rank0_index(database, SLMIndexSettings())
    assert isinstance(index, SLMIndex)
    assert (
        digest(index.ion_parents, index.bucket_offsets)
        == SORT_DIGESTS["slm.rank0/cyclic/2"]
    )


def test_windowed_rank_index_matches_pinned_digest(database):
    index = rank0_index(database, SLMIndexSettings(precursor_tolerance=2.0))
    assert isinstance(index, ChunkedIndex)
    assert (
        digest(index.ion_parents, index.bucket_offsets)
        == SORT_DIGESTS["chunked.rank0/cyclic/2"]
    )
