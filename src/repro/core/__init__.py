"""The HABIT pipeline: clean -> segment -> index -> learn -> impute.

This is the paper's method end to end:

1. :func:`clean_messages` drops malformed AIS messages and canonicalises
   order (:mod:`repro.core.annotate`).
2. :func:`segment_trips` splits vessel streams into trips at temporal or
   spatial discontinuities (:mod:`repro.core.segmentation`).
3. :func:`compute_statistics` aggregates positions into hex-cell and
   cell-transition statistics with :mod:`repro.minidb`
   (:mod:`repro.core.statistics`); the same stage runs shard-by-shard via
   :func:`partial_statistics` + :func:`merge_statistics` (parallel and
   streaming fits: :mod:`repro.core.parallel`, :class:`StreamingSegmenter`).
4. :class:`HabitImputer` builds a weighted cell graph from those statistics
   and answers gap queries with A* plus RDP smoothing
   (:mod:`repro.core.habit`, :mod:`repro.core.graph`).

Side branches: :func:`annotate_events` / :func:`compress_trajectory`
implement the critical-point compression ablation, and
:class:`TypedHabitImputer` routes queries over per-vessel-type graphs
(:mod:`repro.core.typed`).
"""

from repro.core.annotate import annotate_events, clean_messages, compress_trajectory
from repro.core.graph import (
    EDGE_WEIGHTS,
    GOAL_DIRECTED_METHODS,
    PROJECTIONS,
    SEARCH_METHODS,
    CellGraph,
    SearchResult,
)
from repro.core.habit import HabitConfig, HabitImputer, ModelFormatError, config_hash
from repro.core.parallel import compute_statistics_sharded, parallel_fit, shard_trips
from repro.core.path import ImputedPath, straight_line_path
from repro.core.segmentation import (
    StreamingSegmenter,
    segment_trips,
    segment_trips_stream,
)
from repro.core.statistics import (
    StatisticsState,
    compute_statistics,
    merge_statistics,
    partial_statistics,
)
from repro.core.typed import TypedHabitImputer

__all__ = [
    "CellGraph",
    "EDGE_WEIGHTS",
    "GOAL_DIRECTED_METHODS",
    "HabitConfig",
    "HabitImputer",
    "ImputedPath",
    "ModelFormatError",
    "PROJECTIONS",
    "SEARCH_METHODS",
    "SearchResult",
    "StatisticsState",
    "StreamingSegmenter",
    "TypedHabitImputer",
    "annotate_events",
    "clean_messages",
    "compress_trajectory",
    "compute_statistics",
    "compute_statistics_sharded",
    "config_hash",
    "merge_statistics",
    "parallel_fit",
    "partial_statistics",
    "segment_trips",
    "segment_trips_stream",
    "shard_trips",
    "straight_line_path",
]
