"""Ablation — sensitivity of load balance to Algorithm 1's parameters.

The paper leaves two grouping design choices under-explored: the
cutoff criterion (1 vs 2) and the group-size cap ``gsize``.  This
bench measures 16-rank load imbalance across those settings on the
18 M-scale workload.

A structural finding this ablation surfaces: with the continuation
variant of Cyclic used here (`owner(i) = i mod p` over the sorted
order — round-robin *within* every group, carried across boundaries),
the assignment is provably independent of where group boundaries fall,
so Cyclic's LI is flat across all grouping parameters; the same holds
for contiguous Chunk.  Only the Random policy (per-group shuffle +
chunk-split) actually consumes the group structure, so it is the
policy whose LI this ablation sweeps.
"""

from repro.bench.reporting import series_table
from repro.core.grouping import GroupingConfig
from repro.search.engine import DistributedSearchEngine, EngineConfig
from repro.search.metrics import load_imbalance

SIZE_M = 18.0
RANKS = 16

HEADERS = ["criterion", "gsize", "n_groups", "random_LI_%", "cyclic_LI_%", "chunk_LI_%"]


def _li(wl, policy, grouping_cfg):
    res = DistributedSearchEngine(
        wl.database,
        EngineConfig(n_ranks=RANKS, policy=policy, grouping=grouping_cfg),
    ).run(wl.spectra)
    return 100.0 * load_imbalance(res.query_times)


def _run_ablation(suite):
    wl = suite.workload(SIZE_M)
    rows = []
    for criterion in (1, 2):
        for gsize in (5, 20, 50):
            cfg = GroupingConfig(criterion=criterion, gsize=gsize)
            n_groups = wl.database.group_bases(cfg).n_groups
            rows.append(
                (
                    criterion,
                    gsize,
                    n_groups,
                    _li(wl, "random", cfg),
                    _li(wl, "cyclic", cfg),
                    _li(wl, "chunk", cfg),
                )
            )
    return rows


def test_ablation_grouping_parameters(benchmark, suite):
    rows = benchmark.pedantic(_run_ablation, args=(suite,), rounds=1, iterations=1)
    print()
    print(series_table(
        "Ablation: Algorithm 1 criterion × gsize (18M workload, 16 ranks)",
        HEADERS, rows, float_fmt=".1f",
    ))

    cyclic_lis = {r[4] for r in rows}
    chunk_lis = {r[5] for r in rows}
    # Structural property: Cyclic/Chunk are grouping-invariant.
    assert len(cyclic_lis) == 1
    assert len(chunk_lis) == 1
    for criterion, gsize, n_groups, random_li, cyclic_li, chunk_li in rows:
        # The LBE conclusion is robust across grouping settings: both
        # fine-grained policies beat Chunk for every criterion/gsize.
        assert random_li < chunk_li
        assert cyclic_li < chunk_li
        assert n_groups > 0
    # Larger gsize can only reduce (or keep) the number of groups.
    for criterion in (1, 2):
        counts = [r[2] for r in rows if r[0] == criterion]
        assert counts == sorted(counts, reverse=True)
    # Criterion 2 (the paper's choice) groups far more aggressively.
    groups_c1 = min(r[2] for r in rows if r[0] == 1)
    groups_c2 = min(r[2] for r in rows if r[0] == 2)
    assert groups_c2 < groups_c1
