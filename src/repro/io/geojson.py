"""Minimal GeoJSON writers (no external dependencies).

Builders return plain dicts in RFC 7946 shape; :func:`write_geojson`
serialises any of them to disk and returns the path.

The ``encode_*`` helpers write the same shapes as JSON text, byte for
byte what ``json.dumps`` writes for the dict builders' output.  A
LineString's coordinate list can then be encoded once
(:func:`encode_coordinates`), cached, and spliced into any number of
responses.
"""

import json
from pathlib import Path

import numpy as np

__all__ = [
    "encode_coordinates",
    "encode_feature_collection",
    "encode_linestring_feature",
    "feature_collection",
    "linestring_feature",
    "point_feature",
    "write_geojson",
]


def _coords(lats, lngs):
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    return np.column_stack((lngs, lats)).tolist()


def encode_coordinates(lats, lngs):
    """JSON text of the ``[[lng, lat], ...]`` coordinate list that
    :func:`linestring_feature` builds, exactly as ``json.dumps`` writes it."""
    return json.dumps(_coords(lats, lngs))


def encode_linestring_feature(coordinates, properties):
    """JSON text of ``linestring_feature(lats, lngs, properties)`` given
    the coordinate list already encoded by :func:`encode_coordinates`."""
    return (
        '{"type": "Feature", "geometry": {"type": "LineString", "coordinates": '
        f'{coordinates}}}, "properties": {json.dumps(properties)}}}'
    )


def encode_feature_collection(collection):
    """JSON text of a :func:`feature_collection` whose features are
    already JSON text (e.g. from :func:`encode_linestring_feature`)."""
    features = ", ".join(collection["features"])
    return f'{{"type": "FeatureCollection", "features": [{features}]}}'


def linestring_feature(lats, lngs, properties=None):
    """A LineString feature from parallel lat/lng arrays."""
    return {
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": _coords(lats, lngs)},
        "properties": dict(properties or {}),
    }


def point_feature(lat, lng, properties=None):
    """A single Point feature."""
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [float(lng), float(lat)]},
        "properties": dict(properties or {}),
    }


def feature_collection(features):
    """Wrap features into a FeatureCollection."""
    return {"type": "FeatureCollection", "features": list(features)}


def write_geojson(obj, path):
    """Serialise a GeoJSON dict to *path*; returns the :class:`Path`."""
    path = Path(path)
    path.write_text(json.dumps(obj))
    return path
