"""Request/response schemas for the imputation service.

The wire format is plain JSON.  An ``/impute`` payload is either a batch::

    {"requests": [{"dataset": "DAN", "start": [lat, lng], "end": [lat, lng],
                   "id": "r0"}, ...],
     "config": {"resolution": 9}}

or the single-gap shorthand (``dataset``/``start``/``end`` at top level).
``config`` holds optional :class:`repro.core.HabitConfig` field overrides;
unknown fields are rejected rather than silently ignored.  Parsing raises
:class:`SchemaError` (mapped to HTTP 400 by the transport) with a message
naming the offending field.
"""

from dataclasses import dataclass, field, fields
from math import isfinite

import numpy as np

from repro.core import HabitConfig
from repro.io import encode_coordinates, encode_linestring_feature, linestring_feature

__all__ = [
    "GapRequest",
    "ImputeResult",
    "Provenance",
    "SchemaError",
    "build_config",
    "parse_impute_payload",
]


class SchemaError(ValueError):
    """An ``/impute`` payload does not match the request schema."""


@dataclass(frozen=True)
class GapRequest:
    """One gap to impute: a dataset name plus two ``(lat, lng)`` endpoints.

    ``typed=True`` routes the gap over the dataset's
    :class:`repro.core.TypedHabitImputer` (resolved and persisted under
    its own model id); ``vessel_type`` then picks the class-specific
    graph, falling back to the global one when omitted or unknown.

    ``max_points`` caps the response polyline: when the rendered path is
    longer, it is compressed to the budget with
    :func:`repro.geo.compress_to_budget` *after* the render memo, so
    cached paths stay budget-agnostic and a large budget is an exact
    no-op.  Must be an integer >= 2 when given.
    """

    dataset: str
    start: tuple
    end: tuple
    request_id: str = ""
    typed: bool = False
    vessel_type: str | None = None
    max_points: int | None = None


@dataclass(frozen=True)
class Provenance:
    """How one imputation was produced (attached to every result).

    ``cache`` records how the model was obtained: ``"hit"`` (in-memory),
    ``"load"`` (read from the registry directory) or ``"fit"`` (fitted on
    miss).  ``path_cache`` records the engine's snap-and-path cache tier
    for the *route*: ``"hit"`` (answered without touching the search
    kernel), ``"miss"`` (searched, now cached), ``"coalesced"`` (an
    identical route earlier in the same batch was searched once and this
    request rode the same kernel lane), ``"cross_batch"`` (an identical
    route submitted by a *different* concurrent request landed in the
    same micro-batching window and was searched once -- the
    cross-request extension of ``"coalesced"``; see
    :class:`repro.service.dispatch.BatchDispatcher`) or ``"bypass"``
    (uncacheable -- snap fallback or cache disabled).  ``expanded`` is
    the number of
    nodes the search that produced the route settled (0 for straight
    lines; preserved on cache hits even though the heap wasn't touched),
    so search quality is observable per served response -- with the
    default contraction-hierarchy search (``HabitConfig.search="ch"``)
    expect an order of magnitude fewer than the ALT landmark search
    reported.  ``revision``
    is the model's incremental-refresh counter (1 until the first
    :meth:`repro.service.ModelRegistry.refresh`), so clients can tell
    which vintage of the model answered.  ``executor`` records which
    batch executor ran the request -- ``"thread"`` (in-process pool, the
    default) or ``"process"`` (fanned to a worker process; see
    :class:`repro.service.BatchImputationEngine`).  ``path_length_m`` is
    the metric length of the returned polyline -- the path-cost measure
    exposed to clients.  When a request's ``max_points`` budget actually
    compressed the response, ``points_in``/``points_out`` record the
    polyline size before/after compression and ``max_sed_m`` the worst
    synchronized-Euclidean displacement of any dropped point; all three
    stay at their zero defaults when no points were dropped, so an
    over-large budget yields a response byte-identical to omitting it.
    """

    model_id: str
    cache: str
    method: str
    fallback: bool
    num_cells: int
    path_length_m: float
    elapsed_ms: float
    revision: int = 1
    path_cache: str = "bypass"
    expanded: int = 0
    executor: str = "thread"
    points_in: int = 0
    points_out: int = 0
    max_sed_m: float = 0.0

    def to_dict(self):
        """Plain-dict view for JSON responses.

        Equal to ``dataclasses.asdict(self)`` -- same keys, same order --
        but built directly: every field is a scalar, so the recursive
        deep copy inside ``asdict`` would only cost time.
        """
        return {name: getattr(self, name) for name in _PROVENANCE_FIELDS}


_PROVENANCE_FIELDS = tuple(f.name for f in fields(Provenance))


@dataclass(frozen=True)
class ImputeResult:
    """An imputed path plus its provenance, tied back to the request.

    ``coordinates_json`` optionally carries the path's GeoJSON
    coordinate list already encoded (:func:`repro.io.encode_coordinates`
    of ``lats``/``lngs``); the engine fills it from its rendered-path
    memo so a repeated response splices the text instead of encoding
    the floats again.  ``None`` means "encode on demand".
    """

    request: GapRequest
    lats: np.ndarray = field(repr=False)
    lngs: np.ndarray = field(repr=False)
    provenance: Provenance
    coordinates_json: str | None = field(default=None, repr=False, compare=False)

    @property
    def num_points(self):
        """Number of path positions."""
        return len(self.lats)

    def _properties(self, provenance=None):
        return {
            "request_id": self.request.request_id,
            "dataset": self.request.dataset,
            **(self.provenance.to_dict() if provenance is None else provenance),
        }

    def to_feature(self):
        """GeoJSON LineString feature with provenance in ``properties``."""
        return linestring_feature(self.lats, self.lngs, self._properties())

    def feature_json(self, provenance=None):
        """:meth:`to_feature` as JSON text, byte-identical to
        ``json.dumps(self.to_feature())``, splicing ``coordinates_json``
        when the engine supplied it.  *provenance* reuses an
        already-built :meth:`Provenance.to_dict`."""
        coordinates = self.coordinates_json
        if coordinates is None:
            coordinates = encode_coordinates(self.lats, self.lngs)
        return encode_linestring_feature(coordinates, self._properties(provenance))


#: HabitConfig field name -> default value, used to coerce JSON overrides.
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(HabitConfig)}


def build_config(overrides):
    """A :class:`HabitConfig` from a JSON override dict.

    Values are coerced to the type of the field's default; unknown field
    names raise :class:`SchemaError`.
    """
    if overrides is None:
        return HabitConfig()
    if not isinstance(overrides, dict):
        raise SchemaError("config must be a JSON object of HabitConfig overrides")
    unknown = sorted(set(overrides) - set(_CONFIG_DEFAULTS))
    if unknown:
        raise SchemaError(
            f"unknown config fields: {', '.join(unknown)}; "
            f"valid fields are {', '.join(sorted(_CONFIG_DEFAULTS))}"
        )
    kwargs = {}
    for name, value in overrides.items():
        default = _CONFIG_DEFAULTS[name]
        try:
            if isinstance(default, bool):
                coerced = bool(value)
            elif isinstance(default, int):
                coerced = int(value)
            elif isinstance(default, float):
                coerced = float(value)
            else:
                coerced = str(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"config field {name!r}: cannot coerce {value!r}") from exc
        kwargs[name] = coerced
    return HabitConfig(**kwargs)


def _parse_endpoint(value, where):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(f"{where} must be a [lat, lng] pair")
    try:
        lat, lng = float(value[0]), float(value[1])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where} must hold two numbers, got {value!r}") from exc
    if not (isfinite(lat) and isfinite(lng)):
        raise SchemaError(f"{where} must be finite, got {value!r}")
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lng <= 180.0):
        raise SchemaError(f"{where} out of range: lat {lat}, lng {lng}")
    return (lat, lng)


def _parse_request(item, index):
    if not isinstance(item, dict):
        raise SchemaError(f"requests[{index}] must be a JSON object")
    dataset = item.get("dataset")
    if not isinstance(dataset, str) or not dataset.strip():
        raise SchemaError(f"requests[{index}].dataset must be a non-empty string")
    request_id = str(item.get("id", f"req-{index}"))
    typed = item.get("typed", False)
    if not isinstance(typed, bool):
        raise SchemaError(f"requests[{index}].typed must be a boolean")
    vessel_type = item.get("vessel_type")
    if vessel_type is not None and not isinstance(vessel_type, str):
        raise SchemaError(f"requests[{index}].vessel_type must be a string")
    max_points = item.get("max_points")
    if max_points is not None:
        if isinstance(max_points, bool) or not isinstance(max_points, int):
            raise SchemaError(
                f"requests[{index}].max_points must be an integer >= 2, "
                f"got {max_points!r}"
            )
        if max_points < 2:
            raise SchemaError(
                f"requests[{index}].max_points must be >= 2 "
                f"(both endpoints are always kept), got {max_points}"
            )
    return GapRequest(
        dataset=dataset.strip(),
        start=_parse_endpoint(item.get("start"), f"requests[{index}].start"),
        end=_parse_endpoint(item.get("end"), f"requests[{index}].end"),
        request_id=request_id,
        typed=typed,
        vessel_type=vessel_type,
        max_points=max_points,
    )


def parse_impute_payload(payload):
    """Validate an ``/impute`` body; returns ``(requests, config)``."""
    if not isinstance(payload, dict):
        raise SchemaError("payload must be a JSON object")
    raw = payload.get("requests")
    if raw is None and "dataset" in payload:
        raw = [payload]  # single-gap shorthand
    if not isinstance(raw, list) or not raw:
        raise SchemaError(
            "payload must carry a non-empty 'requests' list "
            "(or top-level dataset/start/end for a single gap)"
        )
    config = build_config(payload.get("config"))
    return [_parse_request(item, i) for i, item in enumerate(raw)], config
