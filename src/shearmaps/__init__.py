"""Verification tools for shearing maps of the unit ball in C^2.

A shearing map is ``f(z1, z2) = (z1 + g(z2), z2)`` for a holomorphic ``g`` on
the unit disk with ``g(0) = g'(0) = 0``.  The package certifies coefficient
criteria (starlike, starshapelike, embeddable into a subordination chain),
scans the underlying geometric inequalities on sampled ball points, bounds
operator-norm growth for the certified class, and exhibits a concrete shear
whose differential outgrows every cubic-power bound.
"""

import importlib

__version__ = "0.1.0"

# The one declaration of the public API: each exported name and the
# submodule that defines it.  A name is imported on first access (PEP 562),
# so the certificates, spec parsing and map construction run without numpy,
# which the scans in geometry and growth load.
_EXPORTS = {
    name: module
    for module, names in {
        "counterexample": (
            "BUILTIN_NAME", "DEFAULT_R_GRID", "RATIO_CEILING", "DivergenceRecord",
            "DivergenceScan", "ce_lower_bound", "counterexample_disk_function",
            "counterexample_map", "divergence_scan", "radial_image_bound",
            "simplified_lower_bound", "unit_modulus_check",
        ),
        "errors": (
            "ConfigError", "DomainError", "NormalizationError", "OverflowRefusalError",
            "ShearmapsError", "UncertifiedMapError", "UnsupportedRepresentationError",
        ),
        "geometry": (
            "DEFAULT_SEED", "VIOLATION_THRESHOLD", "SamplerConfig", "ScanReport",
            "default_alpha_grid", "eq1_residual", "eq1_scan", "starlike_quantity",
            "starlike_scan",
        ),
        "growth": ("GrowthRecord", "growth_conformance_scan", "s0_growth_bound"),
        "series": (
            "OVERFLOW_LOG_THRESHOLD", "BallPoint", "CoefficientSeries", "DiskFunction",
            "coeff_sum_s1", "coeff_sum_s2", "disk_function_from_series", "dump_series_spec",
            "load_series_spec", "parse_series_spec", "tail_sum",
        ),
        "shear": (
            "STARLIKE_SUM_LIMIT", "Certificate", "ShearingMap", "all_certificates",
            "embed_certificate", "shear_from_series", "shear_opnorm",
            "starlike_certificate", "starshapelike_certificate", "unipotent_opnorm",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
