"""Seeded inputs for the serving benchmark.

Every gap comes from ``repro.experiments.common.gap_sweep`` over the
held-out test trips of one fixed dataset (KIEL, scale 1.0, dataset seed
0): durations 1800-10800 s x densities 1/2/4, which yields 1,665 gaps
of which 806 are distinct.  The ``--seed`` argument only shuffles and
samples them; the model the server fits is the same on every run.  The
follow-refresh writer appends trips of a second dataset seed.

The server receives nothing but the payloads built here.
"""

import numpy as np

from repro.ais import schema
from repro.experiments.common import gap_sweep, prepare

DATASET = "KIEL"
SCALE = 1.0
DATA_SEED = 0
RESOLUTION = 10
DURATIONS_S = (1800, 3600, 7200, 10800)
DENSITIES = (1, 2, 4)

#: The follow-refresh writer's trips: same region, another dataset seed.
FOLLOW_SCALE = 0.5
FOLLOW_DATA_SEED = 1
FOLLOW_TRIPS_PER_CHUNK = 8
#: A vessel's trip closes once a later report arrives this long after it
#: (segmentation's ``max_gap_s`` is 1800 s).
FOLLOW_SEAL_AFTER_S = 7200.0

#: Quality (DTW, fallback) is measured on the same gaps in every run, so
#: its figures compare across seeds and commits.
QUALITY_SEED = 20_260_417
QUALITY_GAPS = 96

BATCH_GAPS = 32
WARM_POOL = 64
FOLLOW_POOL = 32
#: Share of fleet-batch gaps that carry a ``max_points`` budget.
BUDGET_SHARE = 0.25
BUDGET_POINTS = 16

#: Why each workload is in the benchmark (one line each, as in BENCHMARK.json).
WORKLOADS = {
    "warm-replay": (
        "64 primed gaps replayed as singletons on 2 connections: route cache "
        "and render memo always hit, so transport, schema, provenance and "
        "encoding do the work"
    ),
    "cold-single": (
        "distinct never-repeated singletons on 2 connections over fresh "
        "servers: snap, scalar CH search and unpack, and render on every "
        "request"
    ),
    "fleet-batch": (
        "32-gap batches of the whole gap sweep with its duplicates, a quarter "
        "with max_points: batch kernel, coalescing, budget compression, big "
        "responses"
    ),
    "follow-refresh": (
        "singleton reads from a 32-gap pool on 2 connections while trips of "
        "another dataset seed are appended to the followed dump: refresh lag "
        "and reads stalled by refresh"
    ),
}


class Inputs:
    """The held-out gaps of the benchmark dataset, in sweep order."""

    def __init__(self, cache_dir):
        prepared = prepare(DATASET, scale=SCALE, cache_dir=cache_dir, seed=DATA_SEED)
        sweep = [
            gap
            for cell in gap_sweep(prepared, DURATIONS_S, DENSITIES)
            for gap in cell.gaps
        ]
        first = {}
        for gap in sweep:
            first.setdefault((gap.start, gap.end), gap)
        distinct = list(first.values())
        #: The set-up probe: the first distinct gap, never used elsewhere,
        #: so a fresh server's caches hold nothing a workload asks for.
        self.probe = distinct[0]
        self.distinct = distinct[1:]
        probe_key = (self.probe.start, self.probe.end)
        #: The whole sweep with its natural duplicates, probe excluded.
        self.all_gaps = [g for g in sweep if (g.start, g.end) != probe_key]
        rng = np.random.default_rng(QUALITY_SEED)
        pick = rng.choice(len(self.distinct), size=QUALITY_GAPS, replace=False)
        self.quality = [self.distinct[i] for i in sorted(pick)]


def gap_item(gap, request_id, max_points=None):
    item = {
        "dataset": DATASET,
        "start": list(gap.start),
        "end": list(gap.end),
        "id": request_id,
    }
    if max_points is not None:
        item["max_points"] = max_points
    return item


def payload(items):
    """An ``/impute`` body: the batch plus the benchmark's model config."""
    return {"requests": items, "config": {"resolution": RESOLUTION}}


def batches(gaps, prefix):
    """Split *gaps* into ``BATCH_GAPS``-gap batches of request items."""
    return [
        [gap_item(g, f"{prefix}{i + j}") for j, g in enumerate(gaps[i : i + BATCH_GAPS])]
        for i in range(0, len(gaps), BATCH_GAPS)
    ]


def warm_pool(inputs, rng):
    pick = rng.choice(len(inputs.distinct), size=WARM_POOL, replace=False)
    return [inputs.distinct[i] for i in pick]


def follow_pool(inputs, rng):
    pick = rng.choice(len(inputs.distinct), size=FOLLOW_POOL, replace=False)
    return [inputs.distinct[i] for i in pick]


def cold_order(inputs, rng):
    return [inputs.distinct[i] for i in rng.permutation(len(inputs.distinct))]


def fleet_batches(inputs, rng):
    """The whole sweep, duplicates kept, shuffled into 32-gap batches;
    a seeded quarter of the gaps carries ``max_points``."""
    order = rng.permutation(len(inputs.all_gaps))
    budgeted = rng.random(len(order)) < BUDGET_SHARE
    items = [
        gap_item(
            inputs.all_gaps[i],
            f"f{k}",
            BUDGET_POINTS if budgeted[k] else None,
        )
        for k, i in enumerate(order)
    ]
    return [items[i : i + BATCH_GAPS] for i in range(0, len(items), BATCH_GAPS)]


class FollowChunks:
    """CSV chunks of whole trips from the second dataset seed.

    Each trip gets its own vessel id and one sealing report
    ``FOLLOW_SEAL_AFTER_S`` after its last fix, so every appended trip
    closes in the chunk that carries it (rows are in time order per
    vessel, as a live feed would deliver them).
    """

    HEADER = ",".join(schema.RAW_COLUMNS) + "\n"

    def __init__(self, cache_dir, seed):
        prepared = prepare(
            DATASET, scale=FOLLOW_SCALE, cache_dir=cache_dir, seed=FOLLOW_DATA_SEED
        )
        self._columns = prepared.trips.to_dict()
        trip_ids = np.asarray(self._columns[schema.TRIP_ID])
        order = np.lexsort((self._columns[schema.T], trip_ids))
        self._order = order
        ids = trip_ids[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        self._spans = list(zip(starts, np.r_[starts[1:], len(ids)]))
        self._rng = np.random.default_rng(seed + 2)
        self._next = 0

    def next_chunk(self):
        """CSV text of the next chunk (no header)."""
        cols = self._columns
        picks = self._rng.choice(len(self._spans), FOLLOW_TRIPS_PER_CHUNK, replace=False)
        lines = []
        for j, p in enumerate(picks):
            lo, hi = self._spans[p]
            rows = self._order[lo:hi]
            vessel = 9_000_000 + self._next * 1000 + j
            for r in rows:
                lines.append(_csv_row(cols, r, vessel, float(cols[schema.T][r])))
            last = rows[-1]
            lines.append(
                _csv_row(cols, last, vessel, float(cols[schema.T][last]) + FOLLOW_SEAL_AFTER_S)
            )
        self._next += 1
        return "".join(lines)


def _csv_row(cols, r, vessel, t):
    return (
        f"{vessel},{t!r},{float(cols[schema.LAT][r])!r},{float(cols[schema.LON][r])!r},"
        f"{float(cols[schema.SOG][r])!r},{float(cols[schema.COG][r])!r},"
        f"{cols[schema.VESSEL_TYPE][r]}\n"
    )
