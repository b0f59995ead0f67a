"""Run ``python -m repro.service`` with an in-memory span recorder.

Usage: ``python traced_server.py SPANS_JSON <repro.service arguments>``

Before the service starts, the public entry points of each layer are
wrapped where their callers look them up (``repro.service.http`` for
``parse_impute_payload`` and ``feature_collection``,
``repro.service.engine`` for ``compress_to_budget``,
``repro.core.graph`` for the batch kernel's ``solve_batch``, and class
attributes for methods).  Each call becomes a span ``(id, name, start,
end, parent id, request id, attrs)``; spans nest per thread, and the
request id comes from the client's ``X-Request-Id`` header.  The spans
are written to SPANS_JSON when the service exits (SIGINT).
"""

import itertools
import json
import sys
import threading
import time

from repro.ais.reader import CsvFollower
from repro.core import graph
from repro.core.graph import CellGraph
from repro.core.habit import HabitImputer
from repro.core.segmentation import StreamingSegmenter
from repro.service import engine, http
from repro.service.__main__ import main as service_main
from repro.service.dispatch import BatchDispatcher
from repro.service.engine import BatchImputationEngine
from repro.service.registry import ModelRegistry
from repro.service.schema import ImputeResult, Provenance

SPANS = []
_IDS = itertools.count()
_LOCAL = threading.local()


def _wrap(owner, attr, name, attrs=None):
    """Replace ``owner.attr`` with a span-recording wrapper.

    *attrs(args, result)* returns extra span fields for a call that
    returned; it runs after the span closed, so its cost lands in the
    parent's self time.
    """
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        stack = _LOCAL.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span_id = next(_IDS)
        stack.append(span_id)
        returned = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = attrs(args, result) if attrs is not None and returned else None
            SPANS.append(
                (span_id, name, start, end, parent, getattr(_LOCAL, "rid", None), extra)
            )

    setattr(owner, attr, wrapper)


def _handler_root(owner, attr, name):
    """Wrap the HTTP handler so every span below it carries the request id."""
    _wrap(owner, attr, name)
    traced = getattr(owner, attr)

    def root(self):
        _LOCAL.rid = self.headers.get("X-Request-Id")
        try:
            return traced(self)
        finally:
            _LOCAL.rid = None

    setattr(owner, attr, root)


def _run_attrs(args, results):
    tiers = [r.provenance.path_cache for r in results]
    routed = sum(1 for r in results if not r.provenance.fallback)
    return {"tiers": tiers, "routed": routed}


def install():
    handler = http._ServiceHandler
    _handler_root(handler, "do_POST", "http.handler")
    _wrap(handler, "_send_json", "http.encode")
    _wrap(handler, "_send_body", "http.write", lambda a, r: {"bytes": len(a[2])})
    _wrap(http, "parse_impute_payload", "schema.parse")
    _wrap(Provenance, "to_dict", "schema.provenance")
    _wrap(ModelRegistry, "get", "registry.get", lambda a, r: {"tier": r[2]})
    _wrap(ModelRegistry, "refresh", "registry.refresh")
    _wrap(BatchImputationEngine, "run", "engine.run", _run_attrs)
    _wrap(BatchDispatcher, "submit", "dispatch.submit")
    _wrap(HabitImputer, "snap_endpoints", "snap")
    _wrap(
        CellGraph,
        "find_paths_batch",
        "search",
        lambda a, r: {
            "pairs": len(r),
            "expanded": [x.expanded for x in r if x is not None],
        },
    )
    _wrap(graph, "solve_batch", "kernel", lambda a, r: {"lanes": len(a[1])})
    _wrap(
        HabitImputer,
        "render_path",
        "render",
        lambda a, r: {"points": len(r.lats), "routed": a[3] is not None},
    )
    _wrap(
        engine,
        "compress_to_budget",
        "budget",
        lambda a, r: {"dropped": r.points_dropped},
    )
    _wrap(ImputeResult, "to_feature", "geojson.feature")
    _wrap(
        http,
        "feature_collection",
        "geojson.collection",
        lambda a, r: {"features": len(r["features"])},
    )
    _wrap(
        CsvFollower,
        "poll",
        "reader.poll",
        lambda a, r: {"rows": sum(t.num_rows for t in r)},
    )
    _wrap(
        StreamingSegmenter,
        "push",
        "segment.push",
        lambda a, r: {"trips": len(set(r.column("trip_id").tolist()))},
    )
    _wrap(HabitImputer, "update", "fit.update")
    # ensure_ch is called on every batch search; only the calls that
    # build the hierarchy (fit and refresh) become spans.
    _wrap(CellGraph, "ensure_ch", "graph.ch_build")
    build_ch = CellGraph.ensure_ch

    def ensure_ch(self):
        return self if self.ch_rank is not None else build_ch(self)

    CellGraph.ensure_ch = ensure_ch
    _wrap(HabitImputer, "save", "model.save")


def main():
    spans_path = sys.argv[1]
    install()
    try:
        service_main(sys.argv[2:])
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(SPANS, handle)


if __name__ == "__main__":
    main()
