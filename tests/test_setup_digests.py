"""Pinned set-up outputs: grouping, arena and plans, byte for byte.

The set-up kernels (vectorised Algorithm 1, batched fragment arena)
replaced per-item Python loops under a promise of byte-identical
outputs.  The sha256 digests below were recorded with the per-item
implementations on one fixed database; every downstream consumer
(partitioning, the mapping table, rank indexes, scores) is a pure
function of these arrays, so equal digests mean every plan and every
search result is unchanged by construction.
"""

import hashlib

import numpy as np
import pytest

from repro.db.proteome import ProteomeConfig
from repro.search.database import DatabaseConfig, IndexedDatabase
from repro.search.engine import make_lbe_plan

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


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def database():
    return IndexedDatabase.build(
        DatabaseConfig(proteome=ProteomeConfig(n_families=16, seed=4242))
    )


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
