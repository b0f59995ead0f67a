"""JSON-over-HTTP transport on the stdlib ``http.server``.

Four routes:

- ``GET /healthz`` -- liveness plus registry cache counters (hits /
  loads / fits / evictions / refreshes), the engine's snap-and-path
  cache block (``path_cache``: hits / misses / entries / capacity --
  worker-side counts included in process mode via the metrics merge)
  and, when a follow daemon is attached, its ``follow`` status block
  (rows read, trips closed, refreshes, current revision, last error).
- ``GET /models``  -- the model/revision feed: every model in the
  registry directory (id, dataset, config hash, size, whether it is
  warm in memory) plus its freshness fields -- ``revision``,
  ``last_refresh``, ``rows_ingested`` -- so clients can detect a stale
  model without imputing through it.
- ``GET /metrics`` -- the process-wide :data:`repro.obs.METRICS`
  registry in Prometheus text exposition format (0.0.4); append
  ``?format=json`` for the same data as JSON.  Covers every layer:
  search variants, fit stages, registry tiers, path-cache tiers, follow
  cycles, HTTP routes -- including process-pool worker activity, which
  the engine merges back from batch metric deltas.  404 when the server
  was built with ``metrics=False``.
- ``POST /impute`` -- a batch of gap requests (see
  :mod:`repro.service.schema`); the response carries per-request
  provenance and a GeoJSON FeatureCollection of the imputed paths.
  A request's optional ``max_points`` caps its response polyline via
  budget compression (:mod:`repro.geo.budget`); the provenance then
  reports ``points_in``/``points_out``/``max_sed_m``.

Schema violations map to 400, unresolvable models to 404, everything
else to 500 with the error message in the body.  The server is a
:class:`ThreadingHTTPServer`, so requests run concurrently -- one
handler thread per connection; all shared state lives in the (locked)
registry, the read-only models, the follow daemon's own locked status
snapshot, and the (locked) metrics registry.  Concurrency is also what
the engine's micro-batching dispatcher feeds on: handler threads
submitting cache-missed searches within the same bounded window share
one kernel call (see :mod:`repro.service.dispatch`).

Every request is counted and timed into
``repro_http_requests_total{route,status}`` /
``repro_http_request_seconds{route}`` (the route label is bounded to
the known routes plus ``other`` so a scanner cannot explode the label
space).  The stdlib's stderr request log stays off; pass
``log_json=True`` (CLI ``--log-json``) for an opt-in structured access
log instead -- one JSON object per line (route, method, status,
latency_ms, batch size and request ids for ``/impute``) to stderr or
``log_file``.
"""

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.io import encode_feature_collection, feature_collection
from repro.obs import METRICS
from repro.service.engine import BatchImputationEngine
from repro.service.registry import ModelNotFound
from repro.service.schema import SchemaError, parse_impute_payload

__all__ = ["make_server"]

_HTTP_REQUESTS_TOTAL = METRICS.counter(
    "repro_http_requests_total",
    "HTTP requests served, by route and status code.",
    ("route", "status"),
)
_HTTP_REQUEST_SECONDS = METRICS.histogram(
    "repro_http_request_seconds",
    "HTTP request wall-clock latency in seconds, by route.",
    ("route",),
)

#: Routes that get their own metric label; everything else is "other"
#: so arbitrary paths cannot grow the label space.
_KNOWN_ROUTES = ("/healthz", "/models", "/metrics", "/impute")

#: Largest ``/impute`` body accepted, in bytes; a larger
#: ``Content-Length`` is answered 413 before any of the body is read.
#: A 32-gap batch is a few KB, so this leaves room for batches of
#: thousands of gaps.
MAX_BODY_BYTES = 1 << 20


def make_server(
    registry,
    host="127.0.0.1",
    port=8080,
    max_workers=None,
    executor="thread",
    follow=None,
    metrics=True,
    log_json=False,
    log_file=None,
    batch_window_ms=2.0,
    batch_max_lanes=64,
):
    """A ready-to-run HTTP server over *registry*.

    *executor* picks the batch engine's fan-out (``"thread"`` or
    ``"process"``, see :class:`repro.service.BatchImputationEngine`);
    *batch_window_ms* / *batch_max_lanes* configure the engine's
    cross-request micro-batching dispatcher (thread mode; ``0``
    disables it -- see :class:`repro.service.dispatch.BatchDispatcher`);
    *follow* optionally attaches a started
    :class:`repro.service.FollowDaemon`, surfaced under ``/healthz``.
    *metrics* controls the ``GET /metrics`` route and this transport's
    own request counters (it does not flip the process-wide
    :data:`repro.obs.METRICS` switch -- the CLI's ``--no-metrics``
    does that).  *log_json* enables the structured access log, to
    *log_file* (append) or stderr; the opened handle is exposed as
    ``server.access_log_file`` (``None`` for stderr) and is the
    caller's to close.  Pass ``port=0`` to bind an ephemeral port
    (tests); the chosen port is ``server.server_address[1]``.  The
    caller owns the serve loop (and the engine shutdown --
    ``server.engine.close()`` releases a process pool)::

        server = make_server(registry, port=8080)
        server.serve_forever()
    """
    engine = BatchImputationEngine(
        registry,
        max_workers=max_workers,
        executor=executor,
        batch_window_ms=batch_window_ms,
        batch_max_lanes=batch_max_lanes,
    )

    class Handler(_ServiceHandler):
        pass

    Handler.engine = engine
    Handler.registry = registry
    Handler.follow = follow
    Handler.started_monotonic = time.monotonic()
    Handler.metrics_enabled = bool(metrics)
    access_log_file = None
    if log_json:
        if log_file:
            access_log_file = open(log_file, "a", encoding="utf-8")
            Handler.access_log = access_log_file
        else:
            Handler.access_log = sys.stderr
        Handler.access_log_lock = threading.Lock()
    server = ThreadingHTTPServer((host, port), Handler)
    server.engine = engine  # so callers can close() a process pool
    server.access_log_file = access_log_file
    return server


class _ServiceHandler(BaseHTTPRequestHandler):
    engine = None
    registry = None
    follow = None
    started_monotonic = 0.0
    metrics_enabled = True
    access_log = None  # file-like; None disables the JSON access log
    access_log_lock = None
    _unread_body = False  # set when a request is refused unread; see _send_body
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; a serving daemon
    # under load (and the test suite) wants that off.  The structured
    # replacement is the opt-in JSON access log in _finish_request.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # -- response plumbing -------------------------------------------------

    def _route_label(self):
        path = self.path.split("?", 1)[0]
        return path if path in _KNOWN_ROUTES else "other"

    def _send_json(self, status, payload):
        self._send_body(status, json.dumps(payload).encode("utf-8"), "application/json")

    def _send_body(self, status, body, content_type):
        # Count and log *before* the body hits the socket: a client that
        # has read its response is guaranteed to find the request already
        # counted in its very next scrape (and the access-log line
        # already flushed).  The latency span covers all the request
        # handling; only the loopback write itself falls outside it.
        self._finish_request(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._unread_body:
            # The request body was never read, so the stream is out of
            # step: answer, then close the connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _finish_request(self, status):
        route = self._route_label()
        elapsed = time.perf_counter() - self._request_started
        if self.metrics_enabled:
            _HTTP_REQUESTS_TOTAL.inc(1, (route, str(int(status))))
            _HTTP_REQUEST_SECONDS.observe(elapsed, (route,))
        if self.access_log is not None:
            record = {
                "ts": round(time.time(), 3),
                "route": route,
                "path": self.path,
                "method": self.command,
                "status": int(status),
                "latency_ms": round(elapsed * 1e3, 3),
            }
            record.update(self._log_fields)
            line = json.dumps(record)
            with self.access_log_lock:
                self.access_log.write(line + "\n")
                self.access_log.flush()

    # -- routes ------------------------------------------------------------

    def do_GET(self):
        self._request_started = time.perf_counter()
        self._log_fields = {}
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            stats = self.registry.stats
            payload = {
                "status": "ok",
                "uptime_s": time.monotonic() - self.started_monotonic,
                "models_loaded": len(self.registry.loaded_ids),
                "executor": self.engine.executor,
                "cache": {
                    "hits": stats.hits,
                    "loads": stats.loads,
                    "fits": stats.fits,
                    "evictions": stats.evictions,
                    "refreshes": stats.refreshes,
                },
                "path_cache": self.engine.path_cache_stats(),
            }
            if self.follow is not None:
                payload["follow"] = self.follow.status()
            self._send_json(200, payload)
        elif path == "/models":
            self._send_json(200, {"models": self.registry.list_models()})
        elif path == "/metrics":
            if not self.metrics_enabled:
                self._send_json(404, {"error": "metrics are disabled (--no-metrics)"})
            elif "format=json" in query.split("&"):
                self._send_json(200, METRICS.render_json())
            else:
                self._send_body(
                    200,
                    METRICS.render_prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self):
        self._request_started = time.perf_counter()
        self._log_fields = {}
        if self.path != "/impute":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        raw_length = self.headers.get("Content-Length", "0").strip()
        if not (raw_length.isascii() and raw_length.isdigit()):
            self._unread_body = True
            self._send_json(400, {"error": "invalid Content-Length"})
            return
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            self._unread_body = True
            self._send_json(
                413, {"error": f"body exceeds the {MAX_BODY_BYTES}-byte limit"}
            )
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"")
        except (ValueError, TypeError):
            self._send_json(400, {"error": "body is not valid JSON"})
            return
        try:
            requests, config = parse_impute_payload(payload)
            self._log_fields = {
                "batch": len(requests),
                "request_ids": [r.request_id for r in requests],
            }
            started = time.perf_counter()
            results = self.engine.run(requests, config)
            elapsed_ms = (time.perf_counter() - started) * 1e3
        except SchemaError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except ModelNotFound as exc:
            self._send_json(404, {"error": exc.args[0]})
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._send_body(200, impute_body(results, elapsed_ms), "application/json")


def impute_body(results, elapsed_ms):
    """The ``/impute`` 200 response body, as bytes.

    Byte-identical to ``json.dumps`` of the dict form ``{"count",
    "elapsed_ms", "results": [{"request_id", "dataset", "num_points",
    "provenance"}], "geojson": FeatureCollection}``, but cheaper: each
    result's provenance dict is built once and serves both its
    ``results`` entry and its feature's ``properties``, and each
    feature's coordinate list is spliced in as JSON text (the engine's
    memoized text when it has one) rather than rebuilt as floats and
    encoded again.
    """
    provenances = [r.provenance.to_dict() for r in results]
    head = json.dumps(
        {
            "count": len(results),
            "elapsed_ms": elapsed_ms,
            "results": [
                {
                    "request_id": r.request.request_id,
                    "dataset": r.request.dataset,
                    "num_points": r.num_points,
                    "provenance": provenance,
                }
                for r, provenance in zip(results, provenances)
            ],
        }
    )
    collection = feature_collection(
        r.feature_json(provenance) for r, provenance in zip(results, provenances)
    )
    # head ends with the closing brace of the outer object.
    return f'{head[:-1]}, "geojson": {encode_feature_collection(collection)}}}'.encode("utf-8")
