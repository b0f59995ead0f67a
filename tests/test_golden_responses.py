"""Golden ``/impute`` responses: the served bytes must not drift.

A fixed request corpus over the tiny KIEL fixtures is served through the
in-process HTTP server, one request at a time, and each response body is
reduced to a SHA-256 digest with every ``elapsed_ms`` value masked (the
only field that legitimately varies between runs).  The digests in
``tests/golden/responses.json`` were recorded once; a refactor that
changes any served byte -- a coordinate, a provenance field, key order,
an error message -- fails here and names the request.

The corpus covers singles, exact repeats (rendered-path memo hits), an
in-batch duplicate (``coalesced``), ``max_points`` below and above the
path length, an off-coverage straight-line fallback, typed routing,
``search="astar"``/``"dijkstra"`` config overrides, and 400/404 bodies.

This test only ever reads the digest file.  To record a new corpus, call
:func:`serve_corpus` and write its result by hand.
"""

import hashlib
import json
import re
import threading
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import HabitImputer, TypedHabitImputer
from repro.service import ModelRegistry, make_server

GOLDEN = Path(__file__).resolve().parent / "golden" / "responses.json"

_ELAPSED = re.compile(rb'"elapsed_ms": [^,}]+')


def _digest(body):
    return hashlib.sha256(_ELAPSED.sub(b'"elapsed_ms": 0', body)).hexdigest()


def corpus(gaps):
    """``[(name, payload)]`` in serving order; *payload* is a JSON-ready
    object, or ``bytes`` sent as-is."""

    def gap(i, **extra):
        g = gaps[i % len(gaps)]
        return {
            "dataset": "KIEL",
            "start": list(g.start),
            "end": list(g.end),
            "id": f"g{i}",
            **extra,
        }

    offshore = {"dataset": "KIEL", "start": [0.0, -30.0], "end": [1.0, -31.0], "id": "o"}
    n = len(gaps)
    items = [("batch-coalesced", {"requests": [gap(0), gap(1), gap(0), gap(1), gap(0)]})]
    items += [(f"single-{i}", gap(i)) for i in range(n)]
    items += [(f"repeat-{i}", gap(i)) for i in range(n)]
    items += [
        ("batch-max-points-below", {"requests": [gap(i, max_points=3) for i in range(n)]}),
        (
            "batch-max-points-above",
            {"requests": [gap(i, max_points=10_000) for i in range(n)]},
        ),
        ("fallback", offshore),
        ("fallback-max-points", {**offshore, "max_points": 2}),
        ("typed-cargo", gap(1, typed=True, vessel_type="cargo")),
        ("typed-cargo-repeat", gap(1, typed=True, vessel_type="cargo")),
        ("typed-unknown-class", gap(2, typed=True, vessel_type="zeppelin")),
    ]
    for method in ("astar", "dijkstra"):
        items += [
            (
                f"search-{method}",
                {"requests": [gap(i) for i in range(n)], "config": {"search": method}},
            ),
            (f"search-{method}-repeat", {**gap(0), "config": {"search": method}}),
        ]
    items += [
        ("error-not-json", b"this is not json"),
        ("error-empty-requests", {"requests": []}),
        ("error-bad-max-points", gap(0, max_points=1)),
        ("error-out-of-range", {"dataset": "KIEL", "start": [95.0, 0.0], "end": [0.0, 0.0]}),
        ("error-unknown-dataset", {**gap(0), "dataset": "ATLANTIS"}),
    ]
    return items


def _post(base, payload):
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(base + "/impute", data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def serve_corpus(registry, gaps):
    """Serve the corpus over a fresh server; returns ``{name: "status digest"}``."""
    server = make_server(registry, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = "http://%s:%d" % server.server_address[:2]
    try:
        out = {}
        for name, payload in corpus(gaps):
            status, body = _post(base, payload)
            out[name] = f"{status} {_digest(body)}"
        return out
    finally:
        server.shutdown()
        server.server_close()
        server.engine.close()
        thread.join(timeout=5)


def golden_registry(root, service_model, train):
    """The plain, typed, A* and Dijkstra KIEL models the corpus hits."""
    registry = ModelRegistry(root, capacity=8)
    registry.publish("KIEL", service_model)
    config = service_model.config
    registry.publish("KIEL", TypedHabitImputer(config, min_group_rows=100).fit_from_trips(train))
    for method in ("astar", "dijkstra"):
        registry.publish(
            "KIEL", HabitImputer(replace(config, search=method)).fit_from_trips(train)
        )
    return registry


@pytest.fixture(scope="module")
def golden_gaps(tiny_kiel):
    return tiny_kiel.gaps(3600.0) + tiny_kiel.gaps(1800.0)


def test_golden_responses_match(tmp_path, service_model, tiny_kiel, golden_gaps):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    registry = golden_registry(tmp_path / "models", service_model, tiny_kiel.train)
    served = serve_corpus(registry, golden_gaps)
    assert list(served) == list(expected), "the request corpus itself changed"
    changed = [name for name in expected if served[name] != expected[name]]
    assert not changed, f"response bytes changed for: {', '.join(changed)}"
