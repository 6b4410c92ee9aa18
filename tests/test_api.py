"""The public API: adding or removing an export is a deliberate edit of this list."""
import conetrace

EXPORTS = [
    "BUILTIN_NAMES", "BusemannEstimate", "ClosedGeodesic", "ConeHit", "ConeSurface",
    "ConetraceError", "Crossing", "EdgeCross", "FlatCylinder", "GeodesicPath", "Loop",
    "MixingReport", "Passage", "PhaseCell", "PlaneIsometry", "Segment", "SurfacePoint",
    "TangentState", "ValidationReport", "__version__", "builtin", "busemann",
    "certificate_text", "cone_approach_experiment", "cone_scatter", "convergence_profile",
    "cyclic_reduce", "develop", "equidistant_reparam", "find_unique_closed", "flat_cylinder",
    "gb_residual", "hit_times", "holonomy", "is_unique_in_class", "local_distance",
    "loop_length", "min_cone_distance_profile", "parse_surface", "point_at", "reverse",
    "sample_cell", "serialize", "shorten", "shortest_saddle_connection", "state_at",
    "time_shift", "trace", "transitivity_scan", "validate", "verify_stationarity",
    "word_holonomy",
]


def test_exports_pinned():
    assert len(EXPORTS) == 52
    assert sorted(conetrace.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(conetrace, name) is not None
