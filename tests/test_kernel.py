"""Unit tests for the vectorised batch CH kernel (`repro.core.kernel`).

The equal-cost property suite (`test_search_properties.py`) hammers the
end-to-end batch/scalar agreement across 220 seeded graphs; this module
covers the kernel-specific machinery underneath it -- range expansion,
chunking, the precomputed shortcut-expansion table, the vectorised
initial witness pass against a brute-force oracle, and the obs
instrumentation.
"""

import heapq

import numpy as np
import pytest

from graphgen import edge_costs, random_graph
from repro.core import kernel
from repro.core.graph import _CH_WITNESS_RTOL
from repro.core.kernel import (
    KERNEL_BATCH_SIZE,
    KERNEL_SECONDS,
    _expand_ranges,
    initial_cut_counts,
)


def _seeded_graph(seed=101, topology="uniform"):
    return random_graph(np.random.default_rng(seed), topology)


def _query_pairs(graph, rng, count):
    nodes = graph.cells
    return [tuple(int(c) for c in rng.choice(nodes, 2)) for _ in range(count)]


def test_expand_ranges_gathers_csr_slices():
    starts = np.array([4, 0, 9], dtype=np.int64)
    counts = np.array([2, 0, 3], dtype=np.int64)
    assert _expand_ranges(starts, counts).tolist() == [4, 5, 9, 10, 11]
    assert _expand_ranges(np.empty(0, np.int64), np.empty(0, np.int64)).size == 0


def test_empty_batch_returns_empty_list():
    graph = _seeded_graph()
    assert graph.find_paths_batch([]) == []


def test_batch_rejects_unknown_method():
    graph = _seeded_graph()
    with pytest.raises(ValueError, match="unknown search method"):
        graph.find_paths_batch([(1, 2)], method="warp")


def test_chunked_sweeps_match_one_chunk(monkeypatch):
    """Tiny BATCH_CHUNK_CELLS forces many kernel chunks; results must be
    identical to the single-chunk run (chunking is purely a memory cap)."""
    graph = _seeded_graph(7)
    rng = np.random.default_rng(3)
    pairs = _query_pairs(graph, rng, 40)
    baseline = graph.find_paths_batch(pairs)
    # Small enough that every chunk holds exactly one query lane.
    monkeypatch.setattr(kernel, "BATCH_CHUNK_CELLS", 1)
    chunked = graph.find_paths_batch(pairs)
    for a, b in zip(baseline, chunked):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.cost == b.cost and a.cells == b.cells
            assert a.expanded == b.expanded


def test_batch_paths_use_only_original_edges():
    """Shortcut unpacking must restore original-graph adjacency: every
    consecutive cell pair in a batch path is a real edge."""
    graph = _seeded_graph(23, "lane")
    rng = np.random.default_rng(5)
    pairs = _query_pairs(graph, rng, 30)
    for (src, dst), result in zip(pairs, graph.find_paths_batch(pairs)):
        if result is None:
            continue
        assert result.cells[0] == src and result.cells[-1] == dst
        for a, b in zip(result.cells, result.cells[1:]):
            assert edge_costs(graph, a, b), (a, b)


def test_kernel_metrics_observe_batches():
    graph = _seeded_graph(11)
    rng = np.random.default_rng(1)
    pairs = _query_pairs(graph, rng, 12)
    calls_before = KERNEL_BATCH_SIZE.count()
    seconds_before = KERNEL_SECONDS.count()
    graph.find_paths_batch(pairs)
    assert KERNEL_BATCH_SIZE.count() == calls_before + 1
    assert KERNEL_SECONDS.count() == seconds_before + 1
    assert KERNEL_BATCH_SIZE.sum() >= len(pairs)


def _brute_force_cut_counts(graph, rtol):
    """Scalar witness-pass oracle: full Dijkstra per (node, in-neighbour)
    on the deduped self-loop-free overlay minus the contracted node."""
    n = graph.num_nodes
    out = [dict() for _ in range(n)]
    inn = [dict() for _ in range(n)]
    u = np.repeat(np.arange(n), np.diff(graph.indptr))
    for a, b, c in zip(u.tolist(), graph.indices.tolist(), graph.costs.tolist()):
        if a == b:
            continue
        if b not in out[a] or c < out[a][b]:
            out[a][b] = c
            inn[b][a] = c
    tol = 1.0 + rtol
    counts = np.zeros(n, dtype=np.int64)
    for w in range(n):
        if not inn[w] or not out[w]:
            continue
        for a, cuw in inn[w].items():
            targets = {b for b in out[w] if b != a}
            if not targets:
                continue
            dist = {a: 0.0}
            heap = [(0.0, a)]
            while heap and targets:
                d, x = heapq.heappop(heap)
                if d > dist.get(x, np.inf):
                    continue
                targets.discard(x)
                for y, c in out[x].items():
                    if y == w:
                        continue
                    nd = d + c
                    if nd < dist.get(y, np.inf):
                        dist[y] = nd
                        heapq.heappush(heap, (nd, y))
            for b, cwb in out[w].items():
                if b == a:
                    continue
                through = cuw + cwb
                if dist.get(b, np.inf) > through * tol:
                    counts[w] += 1
    return counts


@pytest.mark.parametrize("seed", [31, 47, 63])
@pytest.mark.parametrize("topology", ["uniform", "lane", "multi_component"])
def test_initial_cut_counts_match_bruteforce_witnesses(seed, topology):
    graph = _seeded_graph(seed, topology)
    counts = initial_cut_counts(
        graph.num_nodes, graph.indptr, graph.indices, graph.costs, _CH_WITNESS_RTOL
    )
    expected = _brute_force_cut_counts(graph, _CH_WITNESS_RTOL)
    assert np.array_equal(counts, expected), (
        f"seed={seed} topology={topology}: "
        f"{np.flatnonzero(counts != expected)[:5]}"
    )


def test_initial_cut_counts_returns_reusable_triples():
    graph = _seeded_graph(53)
    n = graph.num_nodes
    counts, (w, u, v, through) = initial_cut_counts(
        n, graph.indptr, graph.indices, graph.costs, _CH_WITNESS_RTOL,
        return_cuts=True,
    )
    assert len(w) == len(u) == len(v) == len(through) == counts.sum()
    assert np.array_equal(np.bincount(w, minlength=n), counts)
    # Every triple is a genuine in->w->out wedge with the summed cost.
    out = [dict() for _ in range(n)]
    uu = np.repeat(np.arange(n), np.diff(graph.indptr))
    for a, b, c in zip(uu.tolist(), graph.indices.tolist(), graph.costs.tolist()):
        if a != b and (b not in out[a] or c < out[a][b]):
            out[a][b] = c
    for wi, ui, vi, ti in zip(w.tolist(), u.tolist(), v.tolist(), through.tolist()):
        assert ui != vi
        assert ti == out[ui][wi] + out[wi][vi]


def test_empty_graph_initial_pass():
    counts = initial_cut_counts(
        0, np.zeros(1, np.int64), np.empty(0, np.int64), np.empty(0), 1e-12
    )
    assert counts.size == 0
