"""Seeded random cell-graph generators shared by the search test suites.

Every generator honours the engine's cost invariant -- each edge costs at
least the hex grid distance it spans -- so the grid heuristic stays
exactly admissible and every search variant must return Dijkstra-equal
costs on any graph produced here.  ``TOPOLOGIES`` maps a name to a
generator so property suites can sweep adversarial shapes instead of one
uniform blob:

- ``"uniform"`` -- nodes scattered over a square, edges between random
  pairs (the original ``test_search`` shape).
- ``"lane"`` -- a corridor: nodes strung along a line with mostly
  consecutive (lane-following) edges plus a few long skips, the shape
  the paper's cell graphs actually take and the one contraction
  hierarchies exploit.
- ``"multi_component"`` -- two disjoint uniform clusters far apart, so
  unreachable verdicts get exercised on every draw.
- ``"single_node"`` -- one node, no edges (trivial queries only).
- ``"no_edges"`` -- nodes but not a single edge: everything is
  unreachable from everything else.
"""

import numpy as np

from repro.core import CellGraph
from repro.hexgrid import (
    cell_to_latlng_array,
    grid_distance_array,
    latlng_to_cell_array,
)

__all__ = ["TOPOLOGIES", "edge_costs", "random_graph"]

#: Base latitude/longitude of the synthetic patch (Kiel-ish waters).
_LAT0, _LNG0 = 55.0, 10.0


def _random_cells(rng, count, spread, lng_offset=0.0):
    """*count* distinct r9 cells scattered over a ``spread``-degree box."""
    cells = np.array([], dtype=np.int64)
    while len(cells) < count:
        lats = rng.uniform(_LAT0, _LAT0 + spread, count * 3)
        lngs = rng.uniform(
            _LNG0 + lng_offset, _LNG0 + lng_offset + spread, count * 3
        )
        cells = np.unique(latlng_to_cell_array(lats, lngs, 9))
    return rng.permutation(cells)[:count]


def _build(rng, cells, src_idx, dst_idx):
    """Assemble a ``CellGraph`` with admissible costs for the edge list."""
    cells = np.asarray(cells, dtype=np.int64)
    lats, lngs = cell_to_latlng_array(cells)
    src_idx = np.asarray(src_idx, dtype=np.int64)
    dst_idx = np.asarray(dst_idx, dtype=np.int64)
    keep = src_idx != dst_idx
    src, dst = cells[src_idx[keep]], cells[dst_idx[keep]]
    if len(src):
        spans = grid_distance_array(src, dst)
        costs = spans * rng.uniform(1.0, 2.0, len(src))
        counts = rng.integers(1, 50, len(src))
    else:
        costs = np.zeros(0, dtype=np.float64)
        counts = np.zeros(0, dtype=np.int64)
    return CellGraph(cells, lats, lngs, src, dst, costs, counts)


def uniform_graph(rng, num_nodes=48, num_edges=160, spread=0.5):
    """A random hex-cell graph honouring the cost >= grid-span invariant."""
    cells = _random_cells(rng, num_nodes, spread)
    return _build(
        rng,
        cells,
        rng.integers(0, num_nodes, num_edges),
        rng.integers(0, num_nodes, num_edges),
    )


def lane_graph(rng, num_nodes=48, num_edges=160, spread=0.5):
    """A shipping-lane corridor: consecutive hops plus sparse long skips.

    Nodes are ordered along the corridor axis; most edges connect
    near-consecutive nodes (both directions, like two-way lane traffic)
    and a handful skip far ahead, which is exactly the shape that makes
    hierarchy shortcuts pay off.
    """
    lats = rng.uniform(_LAT0, _LAT0 + spread * 0.04, num_nodes * 3)
    lngs = np.sort(rng.uniform(_LNG0, _LNG0 + spread, num_nodes * 3))
    cells = np.unique(latlng_to_cell_array(lats, lngs, 9))
    while len(cells) < num_nodes:  # thin corridors can collide cells
        lats = rng.uniform(_LAT0, _LAT0 + spread * 0.08, num_nodes * 4)
        lngs = np.sort(rng.uniform(_LNG0, _LNG0 + spread, num_nodes * 4))
        cells = np.unique(latlng_to_cell_array(lats, lngs, 9))
    # Keep corridor order: sort the chosen cells by longitude.
    chosen = rng.permutation(len(cells))[:num_nodes]
    cells = cells[np.sort(chosen)]
    cells = cells[np.argsort(cell_to_latlng_array(cells)[1], kind="stable")]
    src_idx = []
    dst_idx = []
    for _ in range(num_edges):
        a = int(rng.integers(0, num_nodes))
        if rng.random() < 0.85:  # lane-following hop
            step = int(rng.integers(1, 4))
        else:  # rare long skip down the corridor
            step = int(rng.integers(4, max(5, num_nodes // 2)))
        b = a + step if rng.random() < 0.5 else a - step
        if 0 <= b < num_nodes:
            src_idx.append(a)
            dst_idx.append(b)
    return _build(rng, cells, src_idx, dst_idx)


def multi_component_graph(rng, num_nodes=48, num_edges=160, spread=0.25):
    """Two disjoint uniform clusters ~50 km apart (cross-pairs unreachable)."""
    half = max(num_nodes // 2, 2)
    west = _random_cells(rng, half, spread)
    east = _random_cells(rng, num_nodes - half, spread, lng_offset=0.7)
    cells = np.concatenate([west, east])
    src_idx = []
    dst_idx = []
    for _ in range(num_edges):
        if rng.random() < 0.5:  # west-internal edge
            a, b = rng.integers(0, half, 2)
        else:  # east-internal edge
            a, b = rng.integers(half, num_nodes, 2)
        src_idx.append(int(a))
        dst_idx.append(int(b))
    return _build(rng, cells, src_idx, dst_idx)


def single_node_graph(rng, num_nodes=1, num_edges=0, spread=0.1):
    """One node, zero edges: the degenerate-topology floor."""
    cells = _random_cells(rng, 1, spread)
    return _build(rng, cells, [], [])


def no_edges_graph(rng, num_nodes=12, num_edges=0, spread=0.3):
    """Nodes without a single edge: every non-trivial pair unreachable."""
    cells = _random_cells(rng, num_nodes, spread)
    return _build(rng, cells, [], [])


#: topology name -> generator ``(rng, **kwargs) -> CellGraph``.
TOPOLOGIES = {
    "uniform": uniform_graph,
    "lane": lane_graph,
    "multi_component": multi_component_graph,
    "single_node": single_node_graph,
    "no_edges": no_edges_graph,
}


def random_graph(rng, topology="uniform", **kwargs):
    """Draw one graph of the named topology (see ``TOPOLOGIES``)."""
    return TOPOLOGIES[topology](rng, **kwargs)


def edge_costs(graph, a, b):
    """Costs of every ``a -> b`` edge (cell ids), read off the CSR arrays;
    empty when the graph has no such edge."""
    u, v = graph.node_index(a), graph.node_index(b)
    if u < 0 or v < 0:
        return []
    lo, hi = graph.indptr[u], graph.indptr[u + 1]
    return graph.costs[lo:hi][graph.indices[lo:hi] == v].tolist()
