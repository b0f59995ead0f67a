"""Per-layer metrics and the self-time table from a traced run's spans.

A span's self time is its duration minus its direct children's.  Spans
of one request all nest under its ``http.handler`` span on the handler
thread, so per request the layers' self times sum to the handler span,
and the client-measured latency minus that span is the explicit
*unattributed* remainder (socket, kernel and client time, including any
Nagle/delayed-ACK stall).
"""

import json
import statistics

import numpy as np

#: Span name -> the layer (module) it belongs to, in table order.
LAYERS = {
    "http.handler": "service.http",
    "http.encode": "service.http",
    "http.write": "service.http",
    "schema.parse": "service.schema",
    "schema.provenance": "service.schema",
    "registry.get": "service.registry",
    "engine.run": "service.engine",
    "dispatch.submit": "service.dispatch",
    "snap": "core.habit (snap)",
    "search": "core.graph (search)",
    "kernel": "core.kernel",
    "render": "geo.simplify (render)",
    "budget": "geo.budget",
    "geojson.feature": "io.geojson",
    "geojson.collection": "io.geojson",
}

#: name -> (unit, better); the order is the per_layer order.
PER_LAYER = {
    "http.self_us_p50": ("us", "lower"),
    "http.response_bytes_mean": ("bytes", "lower"),
    "schema.parse_us_p50": ("us", "lower"),
    "schema.provenance_us_p50": ("us", "lower"),
    "registry.get_us_p50": ("us", "lower"),
    "registry.hit_share": ("ratio", "higher"),
    "registry.refresh_s_p50": ("s", "lower"),
    "engine.self_us_p50": ("us", "lower"),
    "engine.route_hit_share": ("ratio", "higher"),
    "engine.memo_hit_share": ("ratio", "higher"),
    "engine.coalesced_share": ("ratio", "higher"),
    "dispatch.wait_us_p99": ("us", "lower"),
    "dispatch.lanes_per_flush_mean": ("lanes", "higher"),
    "snap.us_p50": ("us", "lower"),
    "search.us_per_query_p50": ("us", "lower"),
    "search.expanded_mean": ("nodes", "lower"),
    "kernel.us_per_lane": ("us", "lower"),
    "kernel.lanes_per_call_mean": ("lanes", "higher"),
    "render.us_p50": ("us", "lower"),
    "render.points_out_mean": ("points", "lower"),
    "budget.us_p50": ("us", "lower"),
    "budget.points_dropped_mean": ("points", "lower"),
    "geojson.us_per_feature": ("us", "lower"),
    "reader.poll_ms_p50": ("ms", "lower"),
    "reader.rows_per_poll": ("rows", "higher"),
    "segment.push_ms_p50": ("ms", "lower"),
    "segment.trips_closed": ("count", "higher"),
    "fit.update_s": ("s", "lower"),
    "graph.ch_build_s": ("s", "lower"),
    "model.save_s": ("s", "lower"),
    "trace.latency_mean_ms": ("ms", "lower"),
    "trace.unattributed_ms_mean": ("ms", "lower"),
    "trace.overhead_ms_p50": ("ms", "lower"),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "attrs", "child_s")

    def __init__(self, row):
        self.id, self.name, self.start, self.end, self.parent, self.rid, self.attrs = row
        self.child_s = 0.0

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child_s


def load_spans(path):
    """The spans written by ``traced_server.py``, with child time summed."""
    with open(path, encoding="utf-8") as handle:
        spans = [Span(row) for row in json.load(handle)]
    by_id = {s.id: s for s in spans}
    for s in spans:
        # A parent still open at exit was never written; its children
        # keep their own figures.
        if s.parent in by_id:
            by_id[s.parent].child_s += s.dur
    return spans


def _p(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values):
    return float(statistics.fmean(values)) if values else 0.0


def analyse(spans_path, client_latency, untraced_p50_s, crossover):
    """Per-layer metrics plus the printable self-time table.

    *client_latency* maps each timed request id to its client-measured
    latency (seconds); spans of other requests (priming, probes) are
    ignored, while write-path spans (follow daemon, fit) all count.
    """
    spans = load_spans(spans_path)
    window = [s for s in spans if s.rid in client_latency]
    named = _by_name(window)
    bg = _by_name(s for s in spans if s.rid is None)

    def durs(name, scale=1e6, pool=named):
        return [s.dur * scale for s in pool.get(name, [])]

    per_request = {}
    for s in window:
        layers = per_request.setdefault(s.rid, {})
        layer = LAYERS.get(s.name, s.name)
        layers[layer] = layers.get(layer, 0.0) + s.self_s
    roots = {s.rid: s.dur for s in named.get("http.handler", [])}
    rids = [r for r in client_latency if r in roots]
    unattributed = [client_latency[r] - roots[r] for r in rids]

    m = {}
    m["http.self_us_p50"] = _p([per_request[r].get("service.http", 0.0) * 1e6 for r in rids], 50)
    m["http.response_bytes_mean"] = _mean([s.attrs["bytes"] for s in named.get("http.write", [])])
    m["schema.parse_us_p50"] = _p(durs("schema.parse"), 50)
    m["schema.provenance_us_p50"] = _p(durs("schema.provenance"), 50)
    gets = named.get("registry.get", [])
    m["registry.get_us_p50"] = _p(durs("registry.get"), 50)
    m["registry.hit_share"] = _mean([s.attrs["tier"] == "hit" for s in gets])
    m["registry.refresh_s_p50"] = _p(durs("registry.refresh", 1.0, bg), 50)
    runs = named.get("engine.run", [])
    tiers = [t for s in runs for t in s.attrs["tiers"]]
    routed = sum(s.attrs["routed"] for s in runs)
    renders = sum(1 for s in named.get("render", []) if s.attrs["routed"])
    m["engine.self_us_p50"] = _p([s.self_s * 1e6 for s in runs], 50)
    m["engine.route_hit_share"] = _mean([t == "hit" for t in tiers])
    m["engine.memo_hit_share"] = 1.0 - renders / routed if routed else 0.0
    m["engine.coalesced_share"] = _mean([t in ("coalesced", "cross_batch") for t in tiers])
    submits = named.get("dispatch.submit", [])
    m["dispatch.wait_us_p99"] = _p([s.self_s * 1e6 for s in submits], 99)
    submit_ids = {s.id for s in submits}
    flushes = [s.attrs["pairs"] for s in named.get("search", []) if s.parent in submit_ids]
    m["dispatch.lanes_per_flush_mean"] = _mean(flushes)
    m["snap.us_p50"] = _p(durs("snap"), 50)
    scalar = [s for s in named.get("search", []) if 0 < s.attrs["pairs"] < crossover]
    m["search.us_per_query_p50"] = _p([s.dur * 1e6 / s.attrs["pairs"] for s in scalar], 50)
    m["search.expanded_mean"] = _mean([e for s in scalar for e in s.attrs["expanded"]])
    kernels = named.get("kernel", [])
    lanes = sum(s.attrs["lanes"] for s in kernels)
    m["kernel.us_per_lane"] = sum(s.dur for s in kernels) * 1e6 / lanes if lanes else 0.0
    m["kernel.lanes_per_call_mean"] = _mean([s.attrs["lanes"] for s in kernels])
    m["render.us_p50"] = _p(durs("render"), 50)
    m["render.points_out_mean"] = _mean([s.attrs["points"] for s in named.get("render", [])])
    m["budget.us_p50"] = _p(durs("budget"), 50)
    m["budget.points_dropped_mean"] = _mean([s.attrs["dropped"] for s in named.get("budget", [])])
    features = sum(s.attrs["features"] for s in named.get("geojson.collection", []))
    geojson_s = sum(
        s.self_s for name in ("geojson.collection", "geojson.feature") for s in named.get(name, [])
    )
    m["geojson.us_per_feature"] = geojson_s * 1e6 / features if features else 0.0
    polls = [s for s in bg.get("reader.poll", []) if s.attrs and s.attrs["rows"]]
    m["reader.poll_ms_p50"] = _p([s.dur * 1e3 for s in polls], 50)
    m["reader.rows_per_poll"] = _mean([s.attrs["rows"] for s in polls])
    pushes = bg.get("segment.push", [])
    m["segment.push_ms_p50"] = _p([s.dur * 1e3 for s in pushes], 50)
    m["segment.trips_closed"] = float(sum(s.attrs["trips"] for s in pushes if s.attrs))
    m["fit.update_s"] = _p(durs("fit.update", 1.0, bg), 50)
    m["graph.ch_build_s"] = _p(durs("graph.ch_build", 1.0, bg), 50)
    m["model.save_s"] = _p(durs("model.save", 1.0, bg), 50)
    latencies = [client_latency[r] for r in rids]
    m["trace.latency_mean_ms"] = _mean(latencies) * 1e3
    m["trace.unattributed_ms_mean"] = _mean(unattributed) * 1e3
    traced_p50 = statistics.median(client_latency.values())
    m["trace.overhead_ms_p50"] = (traced_p50 - untraced_p50_s) * 1e3

    table = _table(per_request, rids, client_latency, unattributed)
    counts = {
        "timed requests with spans": len(rids),
        "scalar search calls": len(scalar),
        "kernel calls": len(kernels),
        "budget calls": len(named.get("budget", [])),
        "refreshes": len(bg.get("registry.refresh", [])),
        "traced p50 ms": traced_p50 * 1e3,
        "untraced p50 ms": untraced_p50_s * 1e3,
    }
    return m, table, counts


def _by_name(spans):
    grouped = {}
    for s in spans:
        grouped.setdefault(s.name, []).append(s)
    return grouped


def _table(per_request, rids, client_latency, unattributed):
    """Mean self time per timed request by layer; the rows sum to the
    client-measured mean latency."""
    n = len(rids) or 1
    order = list(dict.fromkeys(LAYERS.values()))
    order += sorted({k for r in rids for k in per_request[r]} - set(order))
    rows = []
    for layer in order:
        total = sum(per_request[r].get(layer, 0.0) for r in rids)
        rows.append((layer, total / n * 1e3))
    rows.append(("unattributed (socket, kernel, client)", sum(unattributed) / n * 1e3))
    rows.append(("= client-measured mean", sum(client_latency[r] for r in rids) / n * 1e3))
    return rows
