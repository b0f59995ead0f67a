"""Model-format matrix: v5 files load, every other version is refused.

Format v5 is the only readable version; its contraction-hierarchy arrays
are optional.  The matrix pinned here:

- v5 files load into a working imputer;
- v5 files without a CH payload (models fitted with ``search="astar"``
  or ``"dijkstra"``) rebuild the hierarchy on first demand;
- plain and typed round-trips preserve every CH array **bit-exactly**
  (the CH build is deterministic, so save -> load -> rebuild agrees);
- new saves are stamped ``format_version == 5``;
- any other version, older or newer, is rejected.
"""

import numpy as np
import pytest

import repro.core.habit as habit_mod
from repro.core import HabitConfig, HabitImputer, TypedHabitImputer


@pytest.fixture(scope="module")
def ch_model(tiny_kiel):
    """Default-config model: search='ch', hierarchy built at finalize."""
    model = HabitImputer(HabitConfig(resolution=9)).fit_from_trips(tiny_kiel.train)
    assert model.config.search == "ch" and model.graph.has_ch
    return model


def _strip_ch(saved_path, out_path):
    """Rewrite a saved v5 model file without its hierarchy arrays -- the
    layout of a model fitted with a search that never built one."""
    with np.load(saved_path) as data:
        payload = {key: data[key] for key in data.files if key not in habit_mod._CH_KEYS}
    np.savez(out_path, **payload)
    return out_path


@pytest.mark.parametrize("version", [habit_mod.MODEL_FORMAT_VERSION])
def test_every_supported_version_loads_and_serves(ch_model, tiny_kiel, tmp_path, version):
    saved = ch_model.save(tmp_path / "v5.npz")
    with np.load(saved) as data:
        assert str(data["format"][1]) == str(version)
    for path, has_ch in ((saved, True), (_strip_ch(saved, tmp_path / "no_ch.npz"), False)):
        restored = HabitImputer.load(path)
        assert restored.graph.num_nodes == ch_model.graph.num_nodes
        assert restored.graph.has_ch == has_ch
        gap = tiny_kiel.gaps(3600.0)[0]
        result = restored.impute(gap.start, gap.end)
        assert result.num_points >= 2 and result.method == "ch"
        assert restored.graph.has_ch  # a CH-less file rebuilt it on demand


def test_prev5_rebuild_matches_persisted_hierarchy(ch_model, tmp_path):
    """The on-demand rebuild after loading a v5 file without CH arrays
    equals the persisted arrays."""
    saved = ch_model.save(tmp_path / "v5.npz")
    restored = HabitImputer.load(_strip_ch(saved, tmp_path / "no_ch.npz"))
    assert not restored.graph.has_ch
    restored.graph.ensure_ch()
    for key in habit_mod._CH_KEYS:
        assert np.array_equal(getattr(restored.graph, key), getattr(ch_model.graph, key)), key


def test_plain_round_trip_preserves_ch_arrays_bit_exactly(ch_model, tmp_path):
    restored = HabitImputer.load(ch_model.save(tmp_path / "m.npz"))
    assert restored.graph.has_ch
    for key in habit_mod._CH_KEYS:
        ours, theirs = getattr(ch_model.graph, key), getattr(restored.graph, key)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), key


def test_typed_round_trip_preserves_ch_arrays_bit_exactly(tiny_kiel, tmp_path):
    typed = TypedHabitImputer(HabitConfig(resolution=9)).fit_from_trips(
        tiny_kiel.train
    )
    assert typed.fallback.graph.has_ch  # default search builds CH per class
    restored = TypedHabitImputer.load(typed.save(tmp_path / "typed.npz"))
    graph_pairs = [(typed.fallback.graph, restored.fallback.graph)]
    assert sorted(restored.by_type) == sorted(typed.by_type)
    graph_pairs += [
        (typed.by_type[name].graph, restored.by_type[name].graph)
        for name in sorted(typed.by_type)
    ]
    for ours, theirs in graph_pairs:
        assert theirs.has_ch
        for key in habit_mod._CH_KEYS:
            a, b = getattr(ours, key), getattr(theirs, key)
            assert a.dtype == b.dtype and np.array_equal(a, b), key


def test_new_saves_are_stamped_version_5(ch_model, tmp_path):
    path = ch_model.save(tmp_path / "m.npz")
    with np.load(path) as data:
        tag = data["format"]
        assert str(tag[0]) == habit_mod.MODEL_FORMAT and str(tag[1]) == "5"
        for key in habit_mod._CH_KEYS:
            assert key in data.files, key


def test_versions_outside_the_window_are_rejected(ch_model, tmp_path):
    saved = ch_model.save(tmp_path / "v5.npz")
    with np.load(saved) as data:
        payload = {key: data[key] for key in data.files}
    for bad in ("2", "3", "4", "6"):
        payload["format"] = np.array([habit_mod.MODEL_FORMAT, bad])
        bad_path = tmp_path / f"bad{bad}.npz"
        np.savez(bad_path, **payload)
        with pytest.raises(ValueError, match="format version"):
            HabitImputer.load(bad_path)
