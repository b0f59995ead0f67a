"""Service layer: registry LRU, batch engine provenance, HTTP transport."""

import hashlib
import json
import re
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from repro.core import HabitConfig, HabitImputer, TypedHabitImputer, config_hash
from repro.service import (
    BatchImputationEngine,
    GapRequest,
    ModelNotFound,
    ModelRegistry,
    SchemaError,
    make_server,
    parse_impute_payload,
)
from repro.service.http import MAX_BODY_BYTES
from repro.service.schema import build_config


@pytest.fixture()
def registry(tmp_path, service_model):
    reg = ModelRegistry(tmp_path / "models", capacity=4)
    reg.publish("KIEL", service_model)
    return reg


def _gap_requests(dataset, gaps, n=4):
    return [
        GapRequest(
            dataset=dataset,
            start=gaps[i % len(gaps)].start,
            end=gaps[i % len(gaps)].end,
            request_id=f"r{i}",
        )
        for i in range(n)
    ]


# -- registry ------------------------------------------------------------


def test_model_id_is_stable_and_config_sensitive():
    a = HabitConfig(resolution=9)
    assert config_hash(a) == config_hash(HabitConfig(resolution=9))
    assert config_hash(a) != config_hash(HabitConfig(resolution=8))
    assert ModelRegistry.model_id("kiel", a) == f"KIEL_{config_hash(a)}"


def _uncached_config_hash(config):
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


#: One non-default value per HabitConfig field.
_CONFIG_OVERRIDES = {
    "resolution": 7,
    "tolerance_m": 25.0,
    "projection": "median",
    "edge_weight": "inverse_frequency",
    "approx_distinct": False,
    "snap_max_ring": 3,
    "snap_limit_cells": 50,
    "resample_m": 100.0,
    "search": "alt",
    "num_landmarks": 4,
}


def test_config_hash_memo_matches_uncached_digest():
    assert set(_CONFIG_OVERRIDES) == {f.name for f in fields(HabitConfig)}
    for name, value in _CONFIG_OVERRIDES.items():
        config = HabitConfig(**{name: value})
        assert config_hash(config) == _uncached_config_hash(config), name
        assert config_hash(config) == config_hash(config)  # memo hit
        # Equal configs built separately share the digest.
        assert config_hash(HabitConfig(**{name: value})) == config_hash(config)
        assert config_hash(build_config({name: value})) == config_hash(config)
    # Configs that compare equal but serialise differently keep their own
    # digests, whichever of the pair reaches the memo first.
    for name, a, b in (
        ("resolution", 9, 9.0),
        ("tolerance_m", 100.0, 100),
        ("tolerance_m", 0.0, -0.0),
        ("approx_distinct", True, 1),
    ):
        first, second = HabitConfig(**{name: a}), HabitConfig(**{name: b})
        assert first == second
        assert config_hash(first) == _uncached_config_hash(first)
        assert config_hash(second) == _uncached_config_hash(second)
        assert config_hash(first) != config_hash(second)


def test_config_hash_memo_stays_correct_past_its_bound():
    configs = [HabitConfig(tolerance_m=float(i)) for i in range(600)]
    for config in configs + configs[::-1]:
        assert config_hash(config) == _uncached_config_hash(config)


def test_model_ids_and_file_names_are_pinned(tmp_path):
    # Published registries name their files by these ids; a changed
    # digest would orphan every model already on disk.
    config = HabitConfig()
    assert config_hash(config) == "4f13efd807a1"
    assert config_hash(HabitConfig(resolution=10)) == "9b763d460853"
    assert ModelRegistry.model_id("kiel", config) == "KIEL_4f13efd807a1"
    assert ModelRegistry.model_id("kiel", config, typed=True) == "KIEL_TYPED_4f13efd807a1"
    path = ModelRegistry(tmp_path / "reg").path_for("KIEL", config)
    assert path.name == "KIEL_4f13efd807a1.npz"


def test_registry_resolution_tiers(registry, service_model):
    config = service_model.config
    # publish() left the model warm.
    _, model_id, source = registry.get("KIEL", config)
    assert source == "hit"
    registry.evict_all()
    imputer, _, source = registry.get("KIEL", config)
    assert source == "load"
    assert imputer.graph.num_nodes == service_model.graph.num_nodes
    _, _, source = registry.get("KIEL", config)
    assert source == "hit"
    stats = registry.stats
    assert stats.hits == 2 and stats.loads == 1 and stats.fits == 0


def test_registry_miss_without_fitter_raises(registry):
    with pytest.raises(ModelNotFound, match="DAN"):
        registry.get("DAN", HabitConfig())


def test_registry_fit_on_miss_publishes(tmp_path, tiny_kiel):
    calls = []

    def fitter(dataset, config):
        calls.append(dataset)
        return HabitImputer(config).fit_from_trips(tiny_kiel.train)

    reg = ModelRegistry(tmp_path / "reg", fitter=fitter)
    config = HabitConfig(resolution=8)
    _, model_id, source = reg.get("KIEL", config)
    assert source == "fit" and calls == ["KIEL"]
    assert (tmp_path / "reg" / f"{model_id}.npz").exists()
    # A second registry on the same directory resolves from disk, no refit.
    _, _, source = ModelRegistry(tmp_path / "reg").get("KIEL", config)
    assert source == "load" and calls == ["KIEL"]


def test_registry_lru_eviction(tmp_path, tiny_kiel):
    fitter = lambda dataset, config: HabitImputer(config).fit_from_trips(  # noqa: E731
        tiny_kiel.train
    )
    reg = ModelRegistry(tmp_path / "lru", capacity=2, fitter=fitter)
    configs = [HabitConfig(resolution=r) for r in (7, 8, 9)]
    for config in configs:
        reg.get("KIEL", config)
    assert reg.stats.evictions == 1
    assert len(reg.loaded_ids) == 2
    # The oldest model fell out of memory but survives on disk.
    _, _, source = reg.get("KIEL", configs[0])
    assert source == "load"
    # Recency order: touching a model protects it from the next eviction.
    reg.get("KIEL", configs[2])
    reg.get("KIEL", configs[1])  # evicts configs[0] again
    assert ModelRegistry.model_id("KIEL", configs[0]) not in reg.loaded_ids


def test_registry_corrupt_file_falls_through_to_fitter(tmp_path, tiny_kiel):
    from repro.core import ModelFormatError

    config = HabitConfig()
    fitted = {"count": 0}

    def fitter(dataset, cfg):
        fitted["count"] += 1
        return HabitImputer(cfg).fit_from_trips(tiny_kiel.train)

    # An interrupted save left garbage under the model's id.
    no_fitter = ModelRegistry(tmp_path / "reg")
    bad = no_fitter.path_for("KIEL", config)
    bad.write_bytes(b"truncated, definitely not a zip")
    with pytest.raises(ModelFormatError):
        no_fitter.get("KIEL", config)
    # With a fitter the corrupt artefact is refitted and overwritten.
    reg = ModelRegistry(tmp_path / "reg", fitter=fitter)
    _, model_id, source = reg.get("KIEL", config)
    assert source == "fit" and fitted["count"] == 1
    assert HabitImputer.load(bad).graph.num_nodes > 0  # healed on disk


def test_registry_concurrent_misses_dedupe_to_one_fit(tmp_path, tiny_kiel):
    fits = []

    def fitter(dataset, cfg):
        fits.append(dataset)
        return HabitImputer(cfg).fit_from_trips(tiny_kiel.train)

    reg = ModelRegistry(tmp_path / "reg", fitter=fitter)
    config = HabitConfig()
    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(
            pool.map(lambda _: reg.get("KIEL", config)[2], range(8))
        )
    assert len(fits) == 1  # one thread fit, the rest waited for the cache
    assert sorted(set(outcomes)) in (["fit"], ["fit", "hit"])


def test_registry_list_models(registry, service_model):
    entries = registry.list_models()
    assert len(entries) == 1
    entry = entries[0]
    assert entry["dataset"] == "KIEL"
    assert entry["model_id"] == ModelRegistry.model_id("KIEL", service_model.config)
    assert entry["loaded"] is True and entry["size_bytes"] > 0


# -- batch engine --------------------------------------------------------


def test_engine_batch_order_and_provenance(registry, service_model, tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)
    requests = _gap_requests("KIEL", gaps, n=6)
    results = BatchImputationEngine(registry, max_workers=3).run(
        requests, service_model.config
    )
    assert [r.request.request_id for r in results] == [r.request_id for r in requests]
    expected_id = ModelRegistry.model_id("KIEL", service_model.config)
    for result in results:
        assert result.provenance.model_id == expected_id
        assert result.provenance.cache == "hit"
        assert result.provenance.elapsed_ms > 0.0
        assert result.provenance.path_length_m > 0.0
        assert result.num_points >= 2
        if not result.provenance.fallback:
            assert result.provenance.num_cells > 0


def test_engine_flags_straight_line_fallback(registry, service_model):
    # Mid-Atlantic endpoints: snapping is rejected, the path degrades.
    request = GapRequest("KIEL", (10.0, -40.0), (11.0, -41.0), "ocean")
    (result,) = BatchImputationEngine(registry).run([request], service_model.config)
    assert result.provenance.fallback is True
    assert result.provenance.method == "fallback"
    assert result.provenance.num_cells == 0


def test_engine_unknown_dataset_raises(registry, service_model):
    request = GapRequest("ATLANTIS", (54.0, 10.0), (55.0, 11.0), "x")
    with pytest.raises(ModelNotFound):
        BatchImputationEngine(registry).run([request], service_model.config)


def test_engine_process_pool_matches_thread_pool(registry, service_model, tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)
    requests = _gap_requests("KIEL", gaps, n=6)
    thread_results = BatchImputationEngine(registry).run(requests, service_model.config)
    with BatchImputationEngine(
        registry, max_workers=2, executor="process"
    ) as engine:
        process_results = engine.run(requests, service_model.config)
        # The pool is persistent: a second batch reuses warm workers.
        again = engine.run(requests[:2], service_model.config)
    assert len(process_results) == len(thread_results)
    for t, p in zip(thread_results, process_results):
        assert p.request.request_id == t.request.request_id
        assert np.array_equal(p.lats, t.lats) and np.array_equal(p.lngs, t.lngs)
        assert p.provenance.model_id == t.provenance.model_id
        assert p.provenance.method == t.provenance.method
        assert t.provenance.executor == "thread"
        assert p.provenance.executor == "process"
    assert all(r.provenance.executor == "process" for r in again)


def test_process_workers_see_refreshed_revision(registry, service_model, tiny_kiel):
    """A refresh in the parent must reach warm workers: the parent's
    resolved revision rides with each batch and evicts stale worker
    caches, so process mode never serves an older revision than /models
    advertises."""
    gap = tiny_kiel.gaps(3600.0)[0]
    request = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    with BatchImputationEngine(registry, max_workers=1, executor="process") as engine:
        (before,) = engine.run(request, service_model.config)
        assert before.provenance.revision == 1
        registry.refresh("KIEL", tiny_kiel.test, service_model.config)
        (after,) = engine.run(request, service_model.config)
        assert after.provenance.revision == 2
        assert after.provenance.executor == "process"


def test_peek_revision_rejects_unloadable_files(tmp_path, service_model):
    """The process executor's cheap probe must not trust a file a real
    load() would reject -- such files fall through to get() and its
    fitter semantics instead of reaching fitter-less pool workers."""
    reg = ModelRegistry(tmp_path / "reg")
    config = service_model.config
    # Valid zip with a readable revision but no graph arrays.
    np.savez(
        reg.path_for("KIEL", config),
        format=np.array(["habit-npz", "4"]),
        revision=np.array([3]),
    )
    _, revision = reg.peek_revision("KIEL", config)
    assert revision is None
    # A plain-format file sitting at a typed model id is mis-kinded:
    # the typed loader would reject it, so the peek must too.
    service_model.save(reg.path_for("KIEL", config, typed=True))
    _, revision = reg.peek_revision("KIEL", config, typed=True)
    assert revision is None
    # A genuinely loadable publish peeks its real revision.
    reg.publish("KIEL", service_model)
    reg.evict_all()
    _, revision = reg.peek_revision("KIEL", config)
    assert revision == service_model.revision


def test_engine_rejects_unknown_executor(registry):
    with pytest.raises(ValueError, match="executor"):
        BatchImputationEngine(registry, executor="fiber")


def test_engine_process_pool_unknown_dataset_raises_in_parent(registry, service_model):
    request = GapRequest("ATLANTIS", (54.0, 10.0), (55.0, 11.0), "x")
    with BatchImputationEngine(registry, executor="process") as engine:
        with pytest.raises(ModelNotFound):
            engine.run([request], service_model.config)


def test_result_feature_carries_provenance(registry, service_model, tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    request = GapRequest("KIEL", gap.start, gap.end, "g0")
    (result,) = BatchImputationEngine(registry).run([request], service_model.config)
    feature = result.to_feature()
    assert feature["geometry"]["type"] == "LineString"
    assert len(feature["geometry"]["coordinates"]) == result.num_points
    props = feature["properties"]
    assert props["request_id"] == "g0" and props["dataset"] == "KIEL"
    assert props["model_id"] and "elapsed_ms" in props and "fallback" in props
    json.dumps(feature)  # must be JSON-serialisable as-is


# -- typed-model serving -------------------------------------------------


def test_registry_typed_publish_and_resolve(tmp_path, tiny_kiel, service_model):
    reg = ModelRegistry(tmp_path / "models")
    config = service_model.config
    typed = TypedHabitImputer(config, min_group_rows=100).fit_from_trips(
        tiny_kiel.train
    )
    reg.publish("KIEL", service_model)
    typed_id, _ = reg.publish("KIEL", typed)
    plain_id = ModelRegistry.model_id("KIEL", config)
    assert typed_id == ModelRegistry.model_id("KIEL", config, typed=True)
    assert typed_id != plain_id and "_TYPED_" in typed_id
    # The two kinds resolve independently, and a cold load restores types.
    reg.evict_all()
    plain_got, _, _ = reg.get("KIEL", config)
    typed_got, _, _ = reg.get("KIEL", config, typed=True)
    assert isinstance(plain_got, HabitImputer)
    assert isinstance(typed_got, TypedHabitImputer)
    assert typed_got.fitted_groups == typed.fitted_groups
    by_id = {e["model_id"]: e for e in reg.list_models()}
    assert by_id[typed_id]["typed"] is True and by_id[typed_id]["dataset"] == "KIEL"
    assert by_id[plain_id]["typed"] is False


def test_typed_miss_needs_typed_capable_fitter(tmp_path, tiny_kiel):
    config = HabitConfig()
    legacy = ModelRegistry(
        tmp_path / "legacy",
        fitter=lambda d, c: HabitImputer(c).fit_from_trips(tiny_kiel.train),
    )
    with pytest.raises(ModelNotFound, match="typed model"):
        legacy.get("KIEL", config, typed=True)

    def typed_fitter(dataset, cfg, typed=False):
        cls = TypedHabitImputer if typed else HabitImputer
        return cls(cfg).fit_from_trips(tiny_kiel.train)

    capable = ModelRegistry(tmp_path / "capable", fitter=typed_fitter)
    imputer, _, source = capable.get("KIEL", config, typed=True)
    assert source == "fit" and isinstance(imputer, TypedHabitImputer)


def test_engine_routes_typed_requests(registry, service_model, tiny_kiel):
    typed = TypedHabitImputer(service_model.config, min_group_rows=100).fit_from_trips(
        tiny_kiel.train
    )
    typed_id, _ = registry.publish("KIEL", typed)
    gap = tiny_kiel.gaps(3600.0)[0]
    requests = [
        GapRequest("KIEL", gap.start, gap.end, "plain"),
        GapRequest(
            "KIEL", gap.start, gap.end, "typed", typed=True, vessel_type="cargo"
        ),
    ]
    plain_result, typed_result = BatchImputationEngine(registry).run(
        requests, service_model.config
    )
    assert plain_result.provenance.model_id == ModelRegistry.model_id(
        "KIEL", service_model.config
    )
    assert typed_result.provenance.model_id == typed_id
    assert typed_result.num_points >= 2


def test_parse_impute_payload_typed_fields():
    requests, _ = parse_impute_payload(
        {
            "requests": [
                {
                    "dataset": "KIEL",
                    "start": [54.0, 10.0],
                    "end": [55.0, 11.0],
                    "typed": True,
                    "vessel_type": "cargo",
                }
            ]
        }
    )
    assert requests[0].typed is True and requests[0].vessel_type == "cargo"
    with pytest.raises(SchemaError, match="typed"):
        parse_impute_payload(
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "typed": "yes"}
        )
    with pytest.raises(SchemaError, match="vessel_type"):
        parse_impute_payload(
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "vessel_type": 7}
        )


# -- incremental refresh -------------------------------------------------


def test_registry_refresh_bumps_revision_in_provenance(registry, service_model, tiny_kiel):
    config = service_model.config
    gap = tiny_kiel.gaps(3600.0)[0]
    (before,) = BatchImputationEngine(registry).run(
        [GapRequest("KIEL", gap.start, gap.end, "r0")], config
    )
    assert before.provenance.revision == 1
    refreshed, model_id, revision = registry.refresh("KIEL", tiny_kiel.test, config)
    assert revision == 2 and refreshed.revision == 2
    assert registry.stats.refreshes == 1
    (after,) = BatchImputationEngine(registry).run(
        [GapRequest("KIEL", gap.start, gap.end, "r1")], config
    )
    assert after.provenance.revision == 2
    # The refreshed model (and its revision) survive a cold process.
    other = ModelRegistry(registry.root)
    loaded, _, source = other.get("KIEL", config)
    assert source == "load" and loaded.revision == 2


def test_refresh_grows_coverage_not_mutating_served_instance(
    registry, service_model, tiny_kiel
):
    config = service_model.config
    served, _, _ = registry.get("KIEL", config)
    nodes_before = served.graph.num_nodes
    refreshed, _, _ = registry.refresh("KIEL", tiny_kiel.test, config)
    assert refreshed is not served  # replace semantics, never in-place
    assert served.graph.num_nodes == nodes_before
    assert refreshed.graph.num_nodes >= nodes_before


def test_registry_refresh_typed_model(registry, service_model, tiny_kiel):
    config = service_model.config
    typed = TypedHabitImputer(config, min_group_rows=100).fit_from_trips(
        tiny_kiel.train
    )
    typed_id, _ = registry.publish("KIEL", typed)
    refreshed, model_id, revision = registry.refresh(
        "KIEL", tiny_kiel.test, config, typed=True
    )
    assert model_id == typed_id and revision == 2
    assert refreshed is not typed  # replace semantics for typed models too
    # Rebuilt graphs take the new revision (path-cache keys read them);
    # the chunk is cargo-only, so the untouched tanker class keeps its
    # revision and its warm cached routes.
    assert refreshed.fallback.revision == 2
    assert refreshed.by_type["cargo"].revision == 2
    assert refreshed.by_type["tanker"].revision == 1
    # The refreshed typed model round-trips through a cold process.
    loaded, _, source = ModelRegistry(registry.root).get("KIEL", config, typed=True)
    assert source == "load" and loaded.revision == 2
    gap = tiny_kiel.gaps(3600.0)[0]
    (result,) = BatchImputationEngine(registry).run(
        [GapRequest("KIEL", gap.start, gap.end, "t0", typed=True)], config
    )
    assert result.provenance.revision == 2


def test_models_feed_reports_revision_and_refresh(registry, service_model, tiny_kiel):
    (entry,) = registry.list_models()
    assert entry["revision"] == 1
    assert entry["last_refresh"] is None and entry["rows_ingested"] == 0
    registry.refresh("KIEL", tiny_kiel.test, service_model.config)
    (entry,) = registry.list_models()
    assert entry["revision"] == 2 and entry["refreshes"] == 1
    assert entry["rows_ingested"] == tiny_kiel.test.num_rows
    assert entry["last_refresh"] is not None
    # A cold registry on the same directory reads the revision from the
    # file (refresh bookkeeping is daemon-local and starts over).
    (cold,) = ModelRegistry(registry.root).list_models()
    assert cold["revision"] == 2 and cold["loaded"] is False
    assert cold["rows_ingested"] == 0


def test_refresh_rejects_stateless_models(tmp_path, tiny_kiel, service_model):
    # A serve-only artefact (no fit state) must refuse refresh rather
    # than silently rebuilding the model from the new chunk alone.
    reg = ModelRegistry(tmp_path / "models")
    config = service_model.config
    path = reg.path_for("KIEL", config)
    service_model.save(path, include_state=False)
    nodes_before = reg.get("KIEL", config)[0].graph.num_nodes
    with pytest.raises(ValueError, match="without its fit state"):
        reg.refresh("KIEL", tiny_kiel.test, config)
    # The full-history model on disk is untouched.
    assert HabitImputer.load(path).graph.num_nodes == nodes_before


# -- schema validation ---------------------------------------------------


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ([], "JSON object"),
        ({}, "requests"),
        ({"requests": []}, "non-empty"),
        ({"requests": [{"start": [1, 2], "end": [3, 4]}]}, "dataset"),
        ({"requests": [{"dataset": "KIEL", "start": [1], "end": [3, 4]}]}, "start"),
        (
            {"requests": [{"dataset": "KIEL", "start": [95.0, 2], "end": [3, 4]}]},
            "out of range",
        ),
        (
            {"requests": [{"dataset": "KIEL", "start": ["a", "b"], "end": [3, 4]}]},
            "two numbers",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "config": {"nope": 1}},
            "unknown config fields",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "config": [1]},
            "config must be",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "max_points": 0},
            "max_points",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "max_points": -3},
            "max_points",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "max_points": "ten"},
            "max_points",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "max_points": 2.5},
            "max_points",
        ),
        (
            {"dataset": "KIEL", "start": [1, 2], "end": [3, 4], "max_points": True},
            "max_points",
        ),
    ],
)
def test_parse_impute_payload_rejects(payload, fragment):
    with pytest.raises(SchemaError, match=fragment):
        parse_impute_payload(payload)


def test_parse_impute_payload_shorthand_and_config():
    requests, config = parse_impute_payload(
        {
            "dataset": "KIEL",
            "start": [54.0, 10.0],
            "end": [55.0, 11.0],
            "config": {"resolution": 8, "tolerance_m": 50},
        }
    )
    assert len(requests) == 1
    assert requests[0].dataset == "KIEL"
    assert requests[0].start == (54.0, 10.0)
    assert config == HabitConfig(resolution=8, tolerance_m=50.0)


# -- HTTP transport ------------------------------------------------------


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode() if not isinstance(payload, bytes) else payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, json.loads(response.read())


@pytest.fixture()
def server(registry):
    server = make_server(registry, port=0, max_workers=4)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_http_impute_returns_geojson_with_provenance(server, tiny_kiel, service_model):
    gap = tiny_kiel.gaps(3600.0)[0]
    status, body = _post(
        server,
        "/impute",
        {"dataset": "KIEL", "start": list(gap.start), "end": list(gap.end)},
    )
    assert status == 200 and body["count"] == 1
    assert body["results"][0]["provenance"]["model_id"] == ModelRegistry.model_id(
        "KIEL", service_model.config
    )
    feature = body["geojson"]["features"][0]
    assert feature["geometry"]["type"] == "LineString"
    assert len(feature["geometry"]["coordinates"]) >= 2
    assert feature["properties"]["fallback"] in (False, True)


def test_http_health_and_models(server):
    status, health = _get(server, "/healthz")
    assert status == 200 and health["status"] == "ok"
    assert {"hits", "loads", "fits", "evictions", "refreshes"} <= set(health["cache"])
    assert {"hits", "misses", "entries", "capacity"} <= set(health["path_cache"])
    assert health["executor"] == "thread"
    assert "follow" not in health  # no daemon attached to this server
    status, models = _get(server, "/models")
    assert status == 200 and len(models["models"]) == 1
    entry = models["models"][0]
    assert {"revision", "last_refresh", "rows_ingested"} <= set(entry)
    assert entry["revision"] == 1


def test_http_error_statuses(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/impute", b"this is not json")
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server, "/impute", {"requests": []})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(
            server,
            "/impute",
            {"dataset": "ATLANTIS", "start": [54.0, 10.0], "end": [55.0, 11.0]},
        )
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/nope")
    assert err.value.code == 404


def test_http_concurrent_imputes(server, tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)

    def one(i):
        gap = gaps[i % len(gaps)]
        payload = {
            "requests": [
                {
                    "dataset": "KIEL",
                    "start": list(gap.start),
                    "end": list(gap.end),
                    "id": f"c{i}",
                }
            ]
        }
        status, body = _post(server, "/impute", payload)
        return status, body["results"][0]["request_id"]

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(one, range(16)))
    assert all(status == 200 for status, _ in outcomes)
    assert [rid for _, rid in outcomes] == [f"c{i}" for i in range(16)]


# -- CLI -----------------------------------------------------------------


def test_cli_fit_populates_registry(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--fit",
            "KIEL",
            "--scale",
            "0.02",
            "--registry",
            str(tmp_path / "models"),
            "--data-cache",
            str(tmp_path / "data"),
        ],
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "fitted KIEL_" in result.stdout
    published = list((tmp_path / "models").glob("KIEL_*.npz"))
    assert len(published) == 1
    restored = HabitImputer.load(published[0])
    assert restored.graph.num_nodes > 0


def test_cli_requires_an_action():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-m", "repro.service"],
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert "nothing to do" in result.stderr


def test_engine_results_are_finite(registry, service_model, tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)
    results = BatchImputationEngine(registry).run(
        _gap_requests("KIEL", gaps, n=3), service_model.config
    )
    for result in results:
        assert np.all(np.isfinite(result.lats)) and np.all(np.isfinite(result.lngs))


# -- snap-and-path cache --------------------------------------------------


def test_engine_path_cache_hits_on_repeat(registry, service_model, tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    engine = BatchImputationEngine(registry)
    request = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    (first,) = engine.run(request, service_model.config)
    assert first.provenance.path_cache == "miss"
    assert first.provenance.expanded > 0
    (second,) = engine.run(request, service_model.config)
    assert second.provenance.path_cache == "hit"
    # Cached routes render identically, and keep the original search effort.
    assert np.array_equal(first.lats, second.lats)
    assert np.array_equal(first.lngs, second.lngs)
    assert second.provenance.expanded == first.provenance.expanded
    assert engine.path_cache.hits == 1 and engine.path_cache.misses == 1
    # A nearby-but-distinct endpoint that snaps to the same cells also hits.
    nudged = [
        GapRequest(
            "KIEL",
            (gap.start[0] + 1e-7, gap.start[1]),
            (gap.end[0], gap.end[1] - 1e-7),
            "r1",
        )
    ]
    (third,) = engine.run(nudged, service_model.config)
    assert third.provenance.path_cache == "hit"
    # ...while the exact endpoints are still pinned per request.
    assert third.lats[0] == pytest.approx(gap.start[0] + 1e-7)


def test_engine_path_cache_bypasses_fallback(registry, service_model):
    request = [GapRequest("KIEL", (10.0, -40.0), (11.0, -41.0), "ocean")]
    engine = BatchImputationEngine(registry)
    (result,) = engine.run(request, service_model.config)
    assert result.provenance.fallback is True
    assert result.provenance.path_cache == "bypass"
    assert result.provenance.expanded == 0


def test_engine_path_cache_disabled(registry, service_model, tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    engine = BatchImputationEngine(registry, path_cache_size=0)
    request = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    for _ in range(2):
        (result,) = engine.run(request, service_model.config)
        assert result.provenance.path_cache == "bypass"
        assert result.provenance.expanded > 0  # search still ran


def test_engine_path_cache_invalidated_by_refresh(registry, service_model, tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    engine = BatchImputationEngine(registry)
    request = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    engine.run(request, service_model.config)
    (warm,) = engine.run(request, service_model.config)
    assert warm.provenance.path_cache == "hit"
    registry.refresh("KIEL", tiny_kiel.test, service_model.config)
    (after,) = engine.run(request, service_model.config)
    # New revision => new cache key: the stale route is never served.
    assert after.provenance.revision == 2
    assert after.provenance.path_cache == "miss"


def test_engine_coalesces_identical_routes_in_batch(registry, service_model, tiny_kiel):
    """Identical (model, class, snapped src, snapped dst) requests in one
    batch are searched once: the first is a 'miss', the riders record
    'coalesced', and everyone gets the same route."""
    gap = tiny_kiel.gaps(3600.0)[0]
    engine = BatchImputationEngine(registry)
    requests = _gap_requests("KIEL", [gap], n=4)  # 4 requests, one route
    results = engine.run(requests, service_model.config)
    assert [r.provenance.path_cache for r in results] == [
        "miss",
        "coalesced",
        "coalesced",
        "coalesced",
    ]
    # One search: the cache saw exactly one probe-miss and one insert.
    assert engine.path_cache.misses == 1 and len(engine.path_cache) == 1
    for rider in results[1:]:
        assert np.array_equal(rider.lats, results[0].lats)
        assert np.array_equal(rider.lngs, results[0].lngs)
        assert rider.provenance.expanded == results[0].provenance.expanded
        assert rider.provenance.elapsed_ms > 0.0
    # A later batch finds the coalesced route cached like any other.
    (warm,) = engine.run(requests[:1], service_model.config)
    assert warm.provenance.path_cache == "hit"


def test_engine_coalescing_keeps_distinct_routes_apart(
    registry, service_model, tiny_kiel
):
    gaps = tiny_kiel.gaps(3600.0)
    assert len(gaps) >= 2
    requests = [
        GapRequest("KIEL", gaps[0].start, gaps[0].end, "a0"),
        GapRequest("KIEL", gaps[1].start, gaps[1].end, "b0"),
        GapRequest("KIEL", gaps[0].start, gaps[0].end, "a1"),
    ]
    engine = BatchImputationEngine(registry)
    a0, b0, a1 = engine.run(requests, service_model.config)
    assert a0.provenance.path_cache == "miss"
    assert b0.provenance.path_cache == "miss"
    assert a1.provenance.path_cache == "coalesced"
    assert np.array_equal(a0.lats, a1.lats)
    # Scalar equivalence: the batched engine returns exactly what
    # single-request batches produce.
    solo = [
        BatchImputationEngine(registry).run([r], service_model.config)[0]
        for r in requests
    ]
    for batched, alone in zip((a0, b0, a1), solo):
        assert np.array_equal(batched.lats, alone.lats)
        assert np.array_equal(batched.lngs, alone.lngs)


def test_engine_no_coalescing_when_cache_disabled(registry, service_model, tiny_kiel):
    gap = tiny_kiel.gaps(3600.0)[0]
    engine = BatchImputationEngine(registry, path_cache_size=0)
    results = engine.run(_gap_requests("KIEL", [gap], n=3), service_model.config)
    for result in results:
        assert result.provenance.path_cache == "bypass"
        assert result.provenance.expanded > 0  # every request searched


def test_engine_path_cache_typed_routes_by_class(registry, service_model, tiny_kiel):
    from repro.core import TypedHabitImputer

    typed = TypedHabitImputer(service_model.config, min_group_rows=100).fit_from_trips(
        tiny_kiel.train
    )
    registry.publish("KIEL", typed)
    gap = tiny_kiel.gaps(3600.0)[0]
    engine = BatchImputationEngine(registry)
    known = typed.fitted_groups[0]
    req = lambda rid, vt: [  # noqa: E731
        GapRequest("KIEL", gap.start, gap.end, rid, typed=True, vessel_type=vt)
    ]
    (a,) = engine.run(req("a", known), service_model.config)
    (b,) = engine.run(req("b", known), service_model.config)
    assert a.provenance.path_cache == "miss" and b.provenance.path_cache == "hit"
    # A different class resolves a different graph: no cross-class reuse.
    (c,) = engine.run(req("c", "submarine"), service_model.config)
    assert c.provenance.path_cache == "miss"


# -- budget compression (max_points) --------------------------------------


def _compressible_gap(engine, config, gaps, min_points=6):
    """First gap whose rendered path is long enough to actually compress."""
    for gap in gaps:
        (probe,) = engine.run([GapRequest("KIEL", gap.start, gap.end, "probe")], config)
        if probe.num_points >= min_points and not probe.provenance.fallback:
            return gap, probe
    pytest.skip(f"no rendered KIEL path reaches {min_points} points")


def test_engine_max_points_compresses_and_reports(registry, service_model, tiny_kiel):
    engine = BatchImputationEngine(registry)
    gap, full = _compressible_gap(engine, service_model.config, tiny_kiel.gaps(3600.0))
    budget = max(2, full.num_points // 2)
    (squeezed,) = engine.run(
        [GapRequest("KIEL", gap.start, gap.end, "r0", max_points=budget)],
        service_model.config,
    )
    assert squeezed.num_points <= budget
    prov = squeezed.provenance
    assert prov.points_in == full.num_points
    assert prov.points_out == squeezed.num_points
    assert prov.max_sed_m > 0.0
    # Endpoints are pinned through compression; the chord can only shrink.
    assert squeezed.lats[0] == full.lats[0] and squeezed.lats[-1] == full.lats[-1]
    assert squeezed.lngs[0] == full.lngs[0] and squeezed.lngs[-1] == full.lngs[-1]
    assert prov.path_length_m <= full.provenance.path_length_m + 1e-6
    # The output is a subsequence of the uncompressed rendering.
    positions = {(lat, lng) for lat, lng in zip(full.lats, full.lngs)}
    assert all((lat, lng) in positions for lat, lng in zip(squeezed.lats, squeezed.lngs))


def test_engine_max_points_noop_is_bit_identical(registry, service_model, tiny_kiel):
    engine = BatchImputationEngine(registry)
    gap, _ = _compressible_gap(engine, service_model.config, tiny_kiel.gaps(3600.0))
    plain_req = [GapRequest("KIEL", gap.start, gap.end, "r0")]
    engine.run(plain_req, service_model.config)  # warm route cache + memo
    (reference,) = engine.run(plain_req, service_model.config)
    assert reference.provenance.path_cache == "hit"
    (capped,) = engine.run(
        [GapRequest("KIEL", gap.start, gap.end, "r0", max_points=10_000)],
        service_model.config,
    )
    # Over-large budget: memo still hit (the very same cached arrays come
    # back) and the response is bit-identical to omitting max_points.
    assert capped.provenance.path_cache == "hit"
    assert capped.lats is reference.lats and capped.lngs is reference.lngs
    ref_dict = reference.provenance.to_dict()
    cap_dict = capped.provenance.to_dict()
    ref_dict.pop("elapsed_ms"), cap_dict.pop("elapsed_ms")
    assert cap_dict == ref_dict
    assert cap_dict["points_in"] == 0 and cap_dict["max_sed_m"] == 0.0


def test_http_impute_max_points_bounded(server, tiny_kiel):
    gaps = tiny_kiel.gaps(3600.0)
    for gap in gaps:
        status, body = _post(
            server,
            "/impute",
            {"dataset": "KIEL", "start": list(gap.start), "end": list(gap.end)},
        )
        n = len(body["geojson"]["features"][0]["geometry"]["coordinates"])
        if n >= 6 and not body["results"][0]["provenance"]["fallback"]:
            break
    else:
        pytest.skip("no rendered KIEL path reaches 6 points")
    budget = max(2, n // 2)
    status, body = _post(
        server,
        "/impute",
        {
            "dataset": "KIEL",
            "start": list(gap.start),
            "end": list(gap.end),
            "max_points": budget,
        },
    )
    assert status == 200
    coords = body["geojson"]["features"][0]["geometry"]["coordinates"]
    prov = body["results"][0]["provenance"]
    assert len(coords) <= budget
    assert prov["points_in"] == n
    assert prov["points_out"] == len(coords)
    assert prov["max_sed_m"] > 0.0


def test_http_invalid_max_points_is_400(server):
    for bad in (0, -3, "ten", 2.5, True):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(
                server,
                "/impute",
                {
                    "dataset": "KIEL",
                    "start": [54.0, 10.0],
                    "end": [55.0, 11.0],
                    "max_points": bad,
                },
            )
        assert err.value.code == 400
        assert "max_points" in err.value.read().decode()


# -- /impute encoding -----------------------------------------------------


def _reference_impute_body(results, elapsed_ms):
    """The ``/impute`` body in its dict form, encoded by ``json.dumps``:
    the transport's encoding before memoized coordinate text was
    spliced in."""

    def coords(r):
        return [[float(lng), float(lat)] for lat, lng in zip(r.lats, r.lngs)]

    def ident(r):
        return {"request_id": r.request.request_id, "dataset": r.request.dataset}

    payload = {
        "count": len(results),
        "elapsed_ms": elapsed_ms,
        "results": [
            {**ident(r), "num_points": len(r.lats), "provenance": asdict(r.provenance)}
            for r in results
        ],
        "geojson": {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {"type": "LineString", "coordinates": coords(r)},
                    "properties": {**ident(r), **asdict(r.provenance)},
                }
                for r in results
            ],
        },
    }
    return json.dumps(payload).encode("utf-8")


_ELAPSED = re.compile(rb'"elapsed_ms": [^,}]+')


def _mask_elapsed(body):
    return _ELAPSED.sub(b'"elapsed_ms": 0', body)


def test_http_impute_body_matches_dict_encoding(registry, service_model, tiny_kiel):
    registry.publish(
        "KIEL",
        TypedHabitImputer(service_model.config, min_group_rows=100).fit_from_trips(
            tiny_kiel.train
        ),
    )
    server = make_server(registry, port=0, max_workers=4)
    captured = []
    run = server.engine.run

    def capture(requests, config=None):
        results = run(requests, config)
        captured.append(results)
        return results

    server.engine.run = capture
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = "http://%s:%d" % server.server_address[:2]
    gaps = tiny_kiel.gaps(3600.0) + tiny_kiel.gaps(1800.0)

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
    corpus = [{"requests": [gap(0), gap(1), gap(0), gap(1), gap(0)]}]  # coalesced
    corpus += [gap(i) for i in range(n)]  # singles
    corpus += [gap(i) for i in range(n)]  # exact repeats: memo hits
    corpus += [
        {"requests": [gap(i, max_points=3) for i in range(n)]},  # below length
        {"requests": [gap(i, max_points=10_000) for i in range(n)]},  # above
        offshore,  # out-of-coverage straight line
        {**offshore, "max_points": 2},
        gap(1, typed=True, vessel_type="cargo"),
        gap(1, typed=True, vessel_type="cargo"),
        {**gap(2), "id": 'quote " and \u2603 ☃'},
    ]
    try:
        for payload in corpus:
            request = urllib.request.Request(
                base + "/impute", data=json.dumps(payload).encode(), method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                body = response.read()
            expected = _reference_impute_body(captured[-1], 0.0)
            assert _mask_elapsed(body) == _mask_elapsed(expected), payload
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert len(captured) == len(corpus)
    # Every tier the encoder treats differently was exercised: memoized
    # text spliced in, and text encoded at response time.
    tiers = {r.provenance.path_cache for batch in captured for r in batch}
    assert {"miss", "hit", "coalesced", "bypass"} <= tiers
    memoized = [r for batch in captured for r in batch if r.coordinates_json is not None]
    on_demand = [r for batch in captured for r in batch if r.coordinates_json is None]
    assert any(r.provenance.path_cache == "hit" for r in memoized)
    assert any(r.provenance.points_out for r in on_demand)  # budget-compressed
    assert any(r.provenance.fallback for r in on_demand)


def _raw_post(base, content_length):
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=3) as sock:
        sock.sendall(
            b"POST /impute HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + content_length + b"\r\n\r\n"
        )
        # The server must answer and close without waiting for a body;
        # recv raising a timeout here means the handler thread is parked.
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return head.split(b"\r\n"), json.loads(body)


@pytest.mark.parametrize(
    "content_length, status, message",
    [
        (b"-1", 400, "invalid Content-Length"),
        (b"abc", 400, "invalid Content-Length"),
        (b"99999999999999", 413, "limit"),
        (str(MAX_BODY_BYTES + 1).encode(), 413, "limit"),
    ],
)
def test_http_bad_content_length(server, content_length, status, message):
    lines, body = _raw_post(server, content_length)
    assert lines[0].split(b" ")[1] == str(status).encode()
    assert b"Connection: close" in lines
    assert message in body["error"]
    # The handler thread is free again: the server still answers.
    assert _get(server, "/healthz")[0] == 200
