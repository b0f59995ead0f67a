"""Batch imputation engine: many gap requests, one kernel sweep per model.

The engine is the service's query executor.  A batch is grouped by
``(dataset, typed)`` so each model -- plain or typed -- is resolved
through the registry exactly once (one cache probe / disk load / fit per
model, however many gaps ride on it).  Execution is **batch-native**:
every request snaps its endpoints and probes the path cache, the
remaining cache misses are deduplicated (see request coalescing below)
and grouped by resolved class graph, and each group runs through one
:meth:`repro.core.habit.HabitImputer.route_batch` call -- a single
vectorised CH kernel sweep (:mod:`repro.core.kernel`) answers the whole
group instead of one Python heap loop per request.  Per-request
``expanded``/cost/latency still land in provenance individually.

Two executors are available (``executor=`` at construction, recorded in
every result's provenance):

- ``"thread"`` (default) -- in-process execution.  Fitted imputers are
  read-only, so the whole batch runs on the request thread: snap and
  render are cheap Python, and the search itself is one NumPy kernel
  call per model.  The right choice for latency-sensitive serving: no
  serialisation, shared path cache, models resolved once per process.
- ``"process"`` -- a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor`.  CPU-bound batches
  (long searches, many gaps) escape the GIL by fanning contiguous slices
  of the batch across worker processes; each worker slice is itself
  batch-native (one kernel call per model per slice).  Workers resolve
  models from the registry *directory* (the registry's
  files-are-the-contract property) into a per-process cache, so models
  cross the process boundary via the filesystem once, never per task.
  The parent probes every model before dispatch -- a warm cache entry or
  a cheap file-revision peek; only a genuine miss pays a full resolution
  (fit-on-miss / corrupt semantics included) -- so unresolvable models
  fail before any work is sent without the parent loading graphs only
  workers will query.  Worker-side provenance reflects the worker's own
  cache tiers (first batch: ``"load"``), and the imputed paths are
  identical to the thread executor's.

On top of the model cache sits a **snap-and-path LRU cache**: hub-to-hub
queries from large fleets mostly repeat, and a route depends only on the
graph and the *snapped* endpoints -- never on the raw query positions.
(A cache miss pays one graph search -- by default the
contraction-hierarchy variant, whose upward-only bidirectional query
settles an order of magnitude fewer nodes than the ALT heuristic; the
per-route ``expanded`` count rides into provenance either way.)
Each request snaps its endpoints (memoized per graph), then looks up the
search result under ``(model id, class tag, revision, snapped src,
snapped dst)``; a hit renders the cached route without touching the
search kernel at all.  ``revision`` in the key makes incremental
refreshes self-invalidating, and negative results (no route) are cached
too.  Process-pool workers each hold their own path cache, which
persists across batches for the life of the pool.

**Request coalescing:** identical ``(model id, class tag, snapped src,
snapped dst)`` routes within one batch are searched once.  The first
requester records path-cache tier ``"miss"``; every other rider on the
same route records ``"coalesced"`` and is fanned the single result --
large fleet batches converging on hub pairs pay one kernel lane, not N.

**Cross-request micro-batching:** in thread mode the engine routes
every batch's cache-missed lanes through a shared
:class:`repro.service.dispatch.BatchDispatcher`.  Concurrent HTTP
handler threads submitting within a bounded window (``batch_window_ms``,
plus a ``batch_max_lanes`` cap) fuse into one kernel call per resolved
class graph, so sixteen simultaneous singletons cost one sweep, not
sixteen.  The window flushes immediately once every in-flight request
is parked in it -- a lone request never waits (the idle bypass) -- and
identical shared routes from *different* requests dedupe to one lane:
the late arrivals record path-cache tier ``"cross_batch"``, the
cross-request extension of ``"coalesced"``.  ``batch_window_ms=0``
disables the dispatcher entirely.

On top of the route cache sits a **rendered-path memo**: RDP
simplification and resampling dominate the per-request cost of a warm
hit, yet their output depends only on the route and the *exact* raw
endpoints.  Both cache tiers' renders are memoized under ``(route key,
start, end)`` (same capacity as the path cache), together with the
rendered polyline's metric length and its GeoJSON coordinate list
already encoded as JSON text (:func:`repro.io.encode_coordinates`), so
an exactly-repeated query costs two LRU probes, no geometry and no
float encoding at all -- the transport splices the memoized text into
the response.  Memoized results share their coordinate arrays and text
across responses; callers must treat them as read-only (the transport
only serialises them).

Every result carries :class:`repro.service.schema.Provenance`: which
model answered, how it was obtained (cache hit / disk load / fit), the
path-cache tier
(``hit``/``miss``/``coalesced``/``cross_batch``/``bypass``), the
executor that ran the request (``thread``/``process``), the routing
method actually used (including the straight-line fallback flag), nodes
expanded by the search, the metric path length, and per-request
wall-clock latency.
"""

import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from repro.core import HabitConfig
from repro.geo.budget import compress_to_budget
from repro.geo.proj import latlng_to_xy_m, path_length_m
from repro.io import encode_coordinates
from repro.obs import METRICS, diff_snapshots
from repro.service.dispatch import BatchDispatcher
from repro.service.schema import ImputeResult, Provenance

__all__ = ["BatchImputationEngine"]

_PATH_CACHE_TOTAL = METRICS.counter(
    "repro_path_cache_total",
    "Snap-and-path route-cache resolutions by tier "
    "(hit, miss, coalesced, cross_batch, bypass).",
    ("tier",),
)
_IMPUTE_SECONDS = METRICS.histogram(
    "repro_impute_seconds",
    "Per-gap imputation latency in seconds (snap + route + render), "
    "by executor.",
    ("executor",),
)
_COMPRESS_SECONDS = METRICS.histogram(
    "repro_compress_seconds",
    "Budget (max_points) compression latency per compressed response "
    "in seconds.",
)
_COMPRESS_DROPPED = METRICS.counter(
    "repro_compress_points_dropped_total",
    "Path points dropped by per-request max_points budget compression.",
)

#: Sentinel distinguishing "not cached" from a cached no-route (None).
_MISSING = object()

#: Executor names accepted by :class:`BatchImputationEngine`.
EXECUTORS = ("thread", "process")


class _PathCache:
    """Thread-safe bounded LRU of search results keyed by snapped routes."""

    def __init__(self, capacity):
        self.capacity = int(capacity)
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return _MISSING

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self):
        return len(self._entries)


class BatchImputationEngine:
    """Executes batches of gap requests against a model registry.

    Parameters: *registry* (a :class:`repro.service.ModelRegistry`),
    *max_workers* (fan-out width, default ``min(8, cpu_count)``),
    *path_cache_size* (snap-and-path LRU entries, 0 disables; also sizes
    the rendered-path memo), *executor* (``"thread"`` or ``"process"``,
    see the module docstring for the trade-off), *batch_window_ms*
    (cross-request micro-batching window for thread mode, 0 disables
    the dispatcher) and *batch_max_lanes* (pending-lane cap that
    flushes a window early).  A process-mode engine owns a persistent
    worker pool; call :meth:`close` (or use the engine as a context
    manager) to release it and the dispatcher.
    """

    def __init__(
        self,
        registry,
        max_workers=None,
        path_cache_size=4096,
        executor="thread",
        batch_window_ms=2.0,
        batch_max_lanes=64,
    ):
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        self.registry = registry
        self.max_workers = int(max_workers or min(8, (os.cpu_count() or 2)))
        self.executor = executor
        #: LRU over (model id, class tag, revision, snapped src, snapped
        #: dst) -> SearchResult | None; 0 disables route caching.
        self.path_cache = _PathCache(path_cache_size) if path_cache_size else None
        #: LRU over (route cache key, raw start, raw end) ->
        #: (ImputedPath, path_length_m, coordinates JSON text): the
        #: rendered-path memo.
        self.render_cache = _PathCache(path_cache_size) if path_cache_size else None
        self._path_cache_size = path_cache_size
        self.batch_window_ms = float(batch_window_ms)
        self.batch_max_lanes = int(batch_max_lanes)
        self.dispatcher = None
        if executor == "thread" and self.batch_window_ms > 0:
            self.dispatcher = BatchDispatcher(
                window_s=self.batch_window_ms / 1e3, max_lanes=self.batch_max_lanes
            )
        self._pool = None  # lazy, persistent ProcessPoolExecutor
        self._pool_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Release the dispatcher and the process pool, if one started.

        In-flight requests complete (the dispatcher's final window is
        flushed by its own waiters; later submissions run immediately,
        unbatched)."""
        if self.dispatcher is not None:
            self.dispatcher.close()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _process_pool(self):
        # Locked: concurrent first requests on the threaded server must
        # not each spawn (and half-orphan) a worker pool.
        with self._pool_lock:
            if self._pool is None:
                # Spawn, never fork: the pool is created lazily from a
                # request thread of an already multi-threaded daemon (HTTP
                # handlers, follow ingest), and forking a threaded process
                # can hand workers a copy of someone's held lock.  Workers
                # rebuild everything from the registry path anyway, so the
                # only cost is a one-time interpreter start per worker.
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context("spawn"),
                )
            return self._pool

    # -- execution ---------------------------------------------------------

    def run(self, requests, config=None):
        """Impute every request; returns results in request order.

        *config* applies to the whole batch (the transport parses it once
        per payload).  Raises :class:`repro.service.registry.ModelNotFound`
        if any request names a dataset with no resolvable model -- in
        process mode too, before any work is dispatched.
        """
        requests = list(requests)
        config = config or HabitConfig()
        if self.executor == "process" and requests:
            return self._run_process(requests, config)
        # Bracket the whole run so the dispatcher knows this thread may
        # still contribute lanes to the current micro-batching window.
        token = self.dispatcher.enter() if self.dispatcher is not None else None
        try:
            models = {}
            for request in requests:
                key = (request.dataset.upper(), request.typed)
                if key not in models:
                    models[key] = self.registry.get(
                        request.dataset, config, typed=request.typed
                    )
            return self._run_batched(models, requests, "thread", token)
        finally:
            if token is not None:
                self.dispatcher.leave(token)

    def _run_process(self, requests, config):
        """Fan contiguous slices of the batch across the worker pool.

        The parent establishes that every model is resolvable *before*
        dispatch, but cheaply: a warm cache entry or the file's revision
        field answers without loading a graph the parent will never
        query (only a genuine miss pays a full :meth:`registry.get`,
        which applies the fit-on-miss/corrupt-file semantics and
        publishes for the workers).  The resolved revisions ride along
        so a warm worker drops a cached model that a refresh has since
        superseded -- workers never serve older revisions than the
        parent just observed.  Slice order concatenates back to request
        order.
        """
        revisions = {}
        for request in requests:
            key = (request.dataset.upper(), request.typed)
            if key in revisions:
                continue
            model_id, revision = self.registry.peek_revision(
                request.dataset, config, typed=request.typed
            )
            if revision is None:
                imputer, model_id, _ = self.registry.get(
                    request.dataset, config, typed=request.typed
                )
                revision = getattr(imputer, "revision", 1)
            revisions[key] = (model_id, revision)
        pool = self._process_pool()
        workers = min(self.max_workers, len(requests))
        per_slice = -(-len(requests) // workers)  # ceil division
        slices = [
            requests[i : i + per_slice] for i in range(0, len(requests), per_slice)
        ]
        root = str(self.registry.root)
        futures = [
            pool.submit(
                _process_batch,
                root,
                self._path_cache_size,
                batch,
                config,
                dict(revisions.values()),
            )
            for batch in slices
        ]
        results = []
        for future in futures:
            part, metrics_delta = future.result()
            # The worker piggybacked its metric growth on the batch
            # result; folding it here is what makes worker-side search
            # and path-cache activity visible in the parent's scrape.
            if METRICS.enabled:
                METRICS.absorb(metrics_delta)
            results.extend(part)
        return results

    def path_cache_stats(self):
        """JSON-ready path-cache block for ``/healthz``.

        Hit/miss counts come from the metrics registry when collection
        is enabled -- in process mode that includes worker-side probes
        absorbed from batch deltas -- and fall back to the parent
        cache's own counters when metrics are off.  ``entries`` and
        ``capacity`` always describe the parent's cache.
        """
        cache = self.path_cache
        if METRICS.enabled:
            hits = _PATH_CACHE_TOTAL.value(("hit",))
            misses = _PATH_CACHE_TOTAL.value(("miss",))
        else:
            hits = cache.hits if cache is not None else 0
            misses = cache.misses if cache is not None else 0
        return {
            "hits": hits,
            "misses": misses,
            "entries": len(cache) if cache is not None else 0,
            "capacity": cache.capacity if cache is not None else 0,
        }

    def _run_serial(self, requests, config, label):
        """Resolve-once + batched impute; the worker-side half of process
        mode (one worker slice is one batch by design)."""
        models = {}
        for request in requests:
            key = (request.dataset.upper(), request.typed)
            if key not in models:
                models[key] = self.registry.get(
                    request.dataset, config, typed=request.typed
                )
        return self._run_batched(models, requests, label)

    def _run_batched(self, models, requests, label, token=None):
        """Execute one batch: snap + cache-probe per request, one kernel
        sweep per resolved class graph for the misses, render per request.

        Coalescing happens between the probe and the sweep: requests
        sharing a full cache key ride one search lane; the first records
        tier ``"miss"``, the rest ``"coalesced"``.  In thread mode the
        miss lanes go through the shared dispatcher (*token* is the
        run's window hold from :meth:`BatchDispatcher.enter`), where
        they can further fuse with other concurrent requests' lanes; a
        lane answered by another request's identical search records
        ``"cross_batch"``.  With the path cache disabled nothing is
        deduplicated (every request provably pays its own search lane,
        tier ``"bypass"``), and models without the snap/route/render
        stages fall back to their scalar ``impute``.  Per-request
        latency charges each rider its snap/probe/render time plus an
        equal share of its group's kernel call.  All renders go through
        the rendered-path memo (exact raw endpoints in the key).
        """
        paths = [None] * len(requests)
        lengths = [None] * len(requests)
        coordinates = [None] * len(requests)
        tiers = [None] * len(requests)
        elapsed = [0.0] * len(requests)
        #: cache key -> [plain imputer, (src, dst), first result, rider idxs]
        lanes = {}
        groups = {}  # id(plain imputer) -> (plain, [lane keys])
        for i, request in enumerate(requests):
            started = time.perf_counter()
            imputer, model_id, _ = models[(request.dataset.upper(), request.typed)]
            class_tag = ""
            plain = imputer
            if request.typed:
                resolver = getattr(imputer, "resolve", None)
                if resolver is None:
                    plain = None
                else:
                    plain, class_tag = resolver(request.vessel_type)
            if plain is None or not hasattr(plain, "route_batch"):
                if request.typed:
                    paths[i] = imputer.impute(
                        request.start, request.end, request.vessel_type
                    )
                else:
                    paths[i] = imputer.impute(request.start, request.end)
                tiers[i] = "bypass"
            else:
                snapped = plain.snap_endpoints(request.start, request.end)
                if snapped is None:
                    # Out-of-coverage: straight line, nothing to cache.
                    paths[i] = plain.render_path(request.start, request.end, None)
                    tiers[i] = "bypass"
                else:
                    key = (model_id, class_tag, plain.revision, *snapped)
                    if self.path_cache is None:
                        # Cache off: per-request lanes, no dedupe.
                        lanes[(key, i)] = [plain, snapped, None, [i]]
                        tiers[i] = "bypass"
                        groups.setdefault(id(plain), (plain, []))[1].append((key, i))
                    elif key in lanes:
                        lanes[key][3].append(i)
                        tiers[i] = "coalesced"
                    else:
                        result = self.path_cache.get(key)
                        if result is _MISSING:
                            lanes[key] = [plain, snapped, None, [i]]
                            tiers[i] = "miss"
                            groups.setdefault(id(plain), (plain, []))[1].append(key)
                        else:
                            paths[i], lengths[i], coordinates[i] = self._render(
                                plain, key, request, result
                            )
                            tiers[i] = "hit"
            elapsed[i] = time.perf_counter() - started
        if lanes and token is not None and label == "thread":
            # Thread mode: hand the miss lanes to the shared dispatcher,
            # which fuses them with other concurrent requests' windows
            # and runs one kernel call per resolved class graph.
            shared = self.path_cache is not None
            answers = self.dispatcher.submit(
                token,
                [
                    (key, lane[0], lane[1], shared, len(lane[3]))
                    for key, lane in lanes.items()
                ],
            )
            for key, lane in lanes.items():
                result, cross, share = answers[key]
                lane[2] = result
                if shared:
                    self.path_cache.put(key, result)
                if cross:
                    # Another in-flight request's identical lane ran the
                    # search; this batch's first rider was provisionally
                    # a "miss" (in-batch riders stay "coalesced").
                    tiers[lane[3][0]] = "cross_batch"
                for i in lane[3]:
                    elapsed[i] += share
        else:
            for plain, keys in groups.values():
                started = time.perf_counter()
                results = plain.route_batch([lanes[key][1] for key in keys])
                share = (time.perf_counter() - started) / max(
                    1, sum(len(lanes[key][3]) for key in keys)
                )
                for key, result in zip(keys, results):
                    lane = lanes[key]
                    lane[2] = result
                    if self.path_cache is not None:
                        self.path_cache.put(key, result)
                    for i in lane[3]:
                        elapsed[i] += share
        for key, lane in lanes.items():
            plain, _, result, riders = lane
            for i in riders:
                started = time.perf_counter()
                request = requests[i]
                paths[i], lengths[i], coordinates[i] = self._render(
                    plain, key, request, result
                )
                elapsed[i] += time.perf_counter() - started
        out = []
        for i, request in enumerate(requests):
            imputer, model_id, source = models[(request.dataset.upper(), request.typed)]
            path = paths[i]
            length = lengths[i]
            encoded = coordinates[i]
            points_in = points_out = 0
            max_sed = 0.0
            budget = request.max_points
            if budget is not None and len(path.lats) > budget:
                # Strictly post-memo: the rendered-path memo (and the
                # route cache before it) stay budget-agnostic, so mixed
                # budgets share one cached geometry and an over-large
                # budget is an exact no-op.
                started = time.perf_counter()
                x, y = latlng_to_xy_m(path.lats, path.lngs)
                squeezed = compress_to_budget(x, y, budget)
                path = replace(
                    path,
                    lats=path.lats[squeezed.indices],
                    lngs=path.lngs[squeezed.indices],
                )
                length = float(path_length_m(path.lats, path.lngs))
                encoded = None  # the memo's text is the uncompressed path
                spent = time.perf_counter() - started
                elapsed[i] += spent
                _COMPRESS_SECONDS.observe(spent)
                _COMPRESS_DROPPED.inc(squeezed.points_dropped)
                points_in = squeezed.points_in
                points_out = squeezed.points_out
                max_sed = squeezed.max_sed_m
            if length is None:
                length = float(path_length_m(path.lats, path.lngs))
            _PATH_CACHE_TOTAL.inc(1, (tiers[i],))
            _IMPUTE_SECONDS.observe(elapsed[i], (label,))
            provenance = Provenance(
                model_id=model_id,
                cache=source,
                method=path.method,
                fallback=path.method == "fallback",
                num_cells=len(path.cells),
                path_length_m=length,
                elapsed_ms=elapsed[i] * 1e3,
                revision=getattr(imputer, "revision", 1),
                path_cache=tiers[i],
                expanded=path.expanded,
                executor=label,
                points_in=points_in,
                points_out=points_out,
                max_sed_m=max_sed,
            )
            out.append(
                ImputeResult(
                    request=request,
                    lats=path.lats,
                    lngs=path.lngs,
                    provenance=provenance,
                    coordinates_json=encoded,
                )
            )
        return out

    def _render(self, plain, key, request, result):
        """Render *result* through the rendered-path memo.

        Returns ``(ImputedPath, metric length, coordinates JSON text)``;
        the text is ``None`` when the render bypassed the memo (the
        transport then encodes at response time).  The memo key pairs
        the route's full cache key with the *exact* raw endpoints --
        simplification and resampling both see the pinned endpoints, so
        only an exactly-repeated query may reuse the geometry (a nudged
        endpoint re-renders, bit-identically to an unmemoized engine).
        Straight-line fallbacks skip the memo: they are cheaper than
        the probe.
        """
        cache = self.render_cache
        if cache is None or result is None:
            path = plain.render_path(request.start, request.end, result)
            return path, float(path_length_m(path.lats, path.lngs)), None
        memo_key = (key, request.start, request.end)
        entry = cache.get(memo_key)
        if entry is not _MISSING:
            return entry
        path = plain.render_path(request.start, request.end, result)
        entry = (
            path,
            float(path_length_m(path.lats, path.lngs)),
            encode_coordinates(path.lats, path.lngs),
        )
        cache.put(memo_key, entry)
        return entry


# -- process-pool worker side ---------------------------------------------

#: Per-worker-process engine cache: registry root -> (path_cache_size,
#: BatchImputationEngine).  Models and path caches stay warm across
#: batches for the life of the pool.
_WORKER_ENGINES = {}

#: The last metrics snapshot this worker shipped to a parent.  Each
#: batch returns ``diff_snapshots(now, last_shipped)`` -- only growth
#: since the previous batch -- so the parent can absorb every delta
#: without ever double-counting (one-slot dict: workers are
#: single-threaded by design).
_WORKER_METRICS_SHIPPED = {"snapshot": None}


def _process_batch(root, path_cache_size, requests, config, revisions):
    """Run one batch slice inside a worker process.

    Module-level (picklable by reference); builds a thread-mode engine
    over its own registry on first use and reuses it afterwards.
    *revisions* (model id -> revision the parent resolved) evicts any
    worker-cached model a refresh has superseded before serving.

    Returns ``(results, metrics_delta)``: the worker's metric growth
    since its last shipped snapshot piggybacks on every batch so the
    parent can fold warm-worker cache/search activity into its own
    registry (see :mod:`repro.obs`).
    """
    from repro.service.registry import ModelRegistry

    cached = _WORKER_ENGINES.get(root)
    if cached is None or cached[0] != path_cache_size:
        # Workers are single-threaded by design: no dispatcher (there
        # are never concurrent requests to fuse inside one worker).
        engine = BatchImputationEngine(
            ModelRegistry(root),
            max_workers=1,
            path_cache_size=path_cache_size,
            batch_window_ms=0,
        )
        _WORKER_ENGINES[root] = (path_cache_size, engine)
    else:
        engine = cached[1]
    for model_id, revision in revisions.items():
        engine.registry.ensure_revision(model_id, revision)
    results = engine._run_serial(requests, config, "process")
    snapshot = METRICS.snapshot()
    delta = diff_snapshots(snapshot, _WORKER_METRICS_SHIPPED["snapshot"])
    _WORKER_METRICS_SHIPPED["snapshot"] = snapshot
    return results, delta
