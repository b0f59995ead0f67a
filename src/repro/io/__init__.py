"""Export helpers (GeoJSON).

Imputed and ground-truth paths are exported as GeoJSON feature collections
so the paper's example figures (Figure 6) can be reproduced in any map
viewer.
"""

from repro.io.geojson import (
    encode_coordinates,
    encode_feature_collection,
    encode_linestring_feature,
    feature_collection,
    linestring_feature,
    point_feature,
    write_geojson,
)

__all__ = [
    "encode_coordinates",
    "encode_feature_collection",
    "encode_linestring_feature",
    "feature_collection",
    "linestring_feature",
    "point_feature",
    "write_geojson",
]
