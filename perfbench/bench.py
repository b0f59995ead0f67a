"""One benchmark run: servers, rounds, checks and the metrics they yield."""

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import client
import report
import workloads as w
from client import Recorder, Server
from repro.core.graph import KERNEL_CROSSOVER_LANES
from repro.core.habit import HabitImputer
from repro.eval.metrics import dtw_distance_m

#: Fresh servers per untraced run.  Each is timed from launch to its first
#: 200 (``setup_s`` is their median) and runs one round of
#: ``seconds / SETUPS``; the rounds' samples are pooled.
SETUPS = 3
#: Idle refreshes timed after each round of the workloads that do not
#: refresh during their rounds (six samples a run for ``refresh_lag_s``).
IDLE_REFRESHES = 2
#: Tail percentile per workload: the highest of p99/p95/p90 with at
#: least ten samples beyond it at the request count a 10 s run reaches on
#: the seed commit, even on a slow host (~430 singletons on warm-replay,
#: cold-single and follow-refresh; a fixed 156 batches on fleet-batch).
TAIL_PERCENTILE = {
    "warm-replay": 95,
    "cold-single": 95,
    "fleet-batch": 90,
    "follow-refresh": 95,
}
#: follow-refresh appends a chunk 1 s into a round and every 2.5 s after.
FOLLOW_FIRST_APPEND_S = 1.0
FOLLOW_APPEND_EVERY_S = 2.5

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "gaps_per_s": "1/s",
    "setup_s": "s",
    "server_rss_mb": "MB",
    "cpu_ms_per_gap": "ms",
    "dtw_mean_m": "m",
    "routed_share": "ratio",
    "refresh_lag_s": "s",
}


class Bench:
    def __init__(self, root, workload, seed, seconds, workdir):
        self.root = root
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.data_dir = root / ".perfbench_cache" / "data"
        self.inputs = w.Inputs(self.data_dir)
        self._seed_inputs()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _seed_inputs(self):
        """(Re)start the seeded input streams that rounds draw from."""
        self.rng = np.random.default_rng(self.seed)
        self.chunks = w.FollowChunks(self.data_dir, self.seed)
        if self.name == "warm-replay":
            self.pool = w.warm_pool(self.inputs, self.rng)
        elif self.name == "follow-refresh":
            self.pool = w.follow_pool(self.inputs, self.rng)
        elif self.name == "cold-single":
            self.cold = iter(w.cold_order(self.inputs, self.rng))

    # -- the two modes -----------------------------------------------------

    def untraced(self):
        """End-to-end metrics over ``SETUPS`` fresh servers."""
        setups, rss, lags = [], [], []
        rec = Recorder()
        cpu_s = 0.0
        for k in range(SETUPS):
            server = self._server(f"s{k}")
            try:
                setups.append(server.wait_ready(self.inputs.probe))
                if k == 0:
                    descriptor = self._descriptor(server)
                part, part_cpu = self._round(server, self.seconds / SETUPS)
                rec.merge(part)
                cpu_s += part_cpu
                rss.append(server.peak_rss_mb())
                if k == SETUPS - 1:
                    dtw, routed = self._quality(server.port)
                lags += self._refresh_lags(server, part)
            finally:
                server.stop()
        latencies = sorted(rec.latencies)
        q = TAIL_PERCENTILE[self.name]
        tail = float(np.percentile(latencies, q))
        values = {
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "gaps_per_s": rec.gaps / rec.wall_s,
            "setup_s": statistics.median(setups),
            "server_rss_mb": statistics.median(rss),
            "cpu_ms_per_gap": cpu_s * 1e3 / rec.gaps,
            "dtw_mean_m": dtw,
            "routed_share": routed,
            "refresh_lag_s": statistics.median(lags),
        }
        print(f"descriptor: {json.dumps(descriptor)}")
        print(
            f"window: {rec.attempted} requests, {rec.gaps} gaps in {rec.wall_s:.2f} s "
            f"over {SETUPS} servers; error_rate {rec.failed / rec.attempted:.4f}; "
            f"tail = p{q} ({sum(1 for x in latencies if x > tail)} samples beyond it); "
            f"setup_s {_rounded(setups)}; refresh_lag_s {_rounded(lags)}"
        )
        return self._result(
            {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        )

    def traced(self):
        """Per-layer metrics: one untraced and one traced server, one
        full-length round each; the traced round's spans are analysed."""
        server = self._server("plain")
        try:
            server.wait_ready(self.inputs.probe)
            descriptor = self._descriptor(server)
            plain, _ = self._round(server, self.seconds)
        finally:
            server.stop()
        # The traced round replays exactly the untraced round's inputs.
        self._seed_inputs()
        spans = self.workdir / "spans.json"
        server = self._server("traced", spans)
        try:
            server.wait_ready(self.inputs.probe)
            rec, _ = self._round(server, self.seconds)
            self._refresh_lags(server, rec)
        finally:
            code = server.stop()
        if not spans.is_file():
            raise client.ServerError(f"traced server wrote no spans (exit {code}): {server.tail()}")
        values, table, counts = report.analyse(
            spans, rec.by_rid, statistics.median(plain.latencies), KERNEL_CROSSOVER_LANES
        )
        print(f"descriptor: {json.dumps(descriptor)}")
        print(f"self time per timed request, {self.name} (mean ms):")
        for layer, ms in table:
            print(f"  {layer:<40} {ms:10.4f}")
        print(f"counts: {json.dumps(counts)}")
        return self._result(
            {k: {"value": values[k], "unit": unit} for k, (unit, _) in report.PER_LAYER.items()}
        )

    def _result(self, metrics):
        for error in self.errors:
            print(f"check failed: {error}", file=sys.stderr)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    # -- phases --------------------------------------------------------------

    def _server(self, name, spans_path=None):
        return Server(self.root, self.workdir, self.data_dir, name, spans_path)

    def _round(self, server, seconds):
        """Prime, then one timed round; returns ``(Recorder, server CPU s)``."""
        on_tick = None
        if self.name in ("warm-replay", "follow-refresh"):
            client.request_batches(server.port, w.batches(self.pool, "p"), "p")
            next_items = lambda: [w.gap_item(self._pick(), "g")]  # noqa: E731
        elif self.name == "cold-single":
            next_items = lambda: _single(next(self.cold, None))  # noqa: E731
        else:
            order = iter(w.fleet_batches(self.inputs, self.rng))
            next_items = lambda: next(order, None)  # noqa: E731
        appends = []
        if self.name == "follow-refresh":
            on_tick = self._dump_writer(server, seconds, appends)
        cpu0 = server.cpu_ticks()
        rec = client.closed_loop(server.port, next_items, seconds, on_tick)
        cpu_s = (server.cpu_ticks() - cpu0) / client.CLK_TCK
        rec.appends = appends
        self._count(rec)
        return rec, cpu_s

    def _dump_writer(self, server, seconds, appends):
        """The follow-refresh writer: appends a chunk to the followed dump
        on schedule and records when (runs on the client's main thread)."""
        due = []
        while FOLLOW_FIRST_APPEND_S + len(due) * FOLLOW_APPEND_EVERY_S < seconds - 0.5:
            due.append(FOLLOW_FIRST_APPEND_S + len(due) * FOLLOW_APPEND_EVERY_S)
        chunks = [self.chunks.next_chunk() for _ in due]

        def on_tick(elapsed):
            if len(appends) < len(due) and elapsed >= due[len(appends)]:
                server.append(chunks[len(appends)])
                appends.append(time.perf_counter())

        return on_tick

    def _pick(self):
        return self.pool[int(self.rng.integers(len(self.pool)))]

    def _count(self, rec):
        self.attempted += rec.attempted
        self.failed += rec.failed
        self.errors.extend(rec.errors)

    def _quality(self, port):
        """Mean DTW against held-out truth and the routed (non-fallback)
        share, on the fixed quality subset, after the timed window."""
        gaps = self.inputs.quality
        bodies = client.request_batches(port, w.batches(gaps, "q"), "q")
        features = [f for body in bodies for f in body["geojson"]["features"]]
        dtws = []
        routed = 0
        for gap, feature in zip(gaps, features):
            coords = feature["geometry"]["coordinates"]
            lngs = [c[0] for c in coords]
            lats = [c[1] for c in coords]
            dtws.append(dtw_distance_m(lats, lngs, gap.truth_lats, gap.truth_lngs))
            routed += not feature["properties"]["fallback"]
        return statistics.fmean(dtws), routed / len(gaps)

    def _refresh_lags(self, server, rec):
        """Seconds from appending a chunk to the dump until an
        ``/impute`` response is served at the bumped revision.

        follow-refresh times the chunks appended during its round, under
        read load; the other workloads append ``IDLE_REFRESHES`` chunks
        one at a time after their round, on the idle server.
        """
        served = sorted(rec.revisions)
        lags = []
        for k in range(len(rec.appends) or IDLE_REFRESHES):
            target = 2 + k  # revision 1 is the fitted model
            if rec.appends:
                appended = rec.appends[k]
            else:
                appended = time.perf_counter()
                server.append(self.chunks.next_chunk())
            seen = next((t for t, r in served if r >= target and t >= appended), None)
            if seen is None:
                seen = client.wait_for_revision(server.port, self.inputs.probe, target)
            lags.append(seen - appended)
        return lags

    def _descriptor(self, server):
        (model_path,) = server.registry.glob("*.npz")
        model = HabitImputer.load(model_path)
        return {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": _commit(self.root),
            "source_sha256": _source_digest(self.root / "src"),
            "dataset": w.DATASET,
            "scale": w.SCALE,
            "dataset_seed": w.DATA_SEED,
            "resolution": w.RESOLUTION,
            "model_nodes": model.graph.num_nodes,
            "model_edges": model.graph.num_edges,
            "model_revision": model.revision,
        }


def _single(gap):
    return None if gap is None else [w.gap_item(gap, "g")]


def _rounded(values):
    return [round(v, 3) for v in values]


def _commit(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_digest(src):
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
