"""Verification tools for shearing maps of the unit ball in C^2.

A shearing map is ``f(z1, z2) = (z1 + g(z2), z2)`` for a holomorphic ``g`` on
the unit disk with ``g(0) = g'(0) = 0``.  The package certifies coefficient
criteria (starlike, starshapelike, embeddable into a subordination chain),
scans the underlying geometric inequalities on sampled ball points, bounds
operator-norm growth for the certified class, and exhibits a concrete shear
whose differential outgrows every cubic-power bound.
"""

from types import ModuleType as _ModuleType

from .counterexample import (
    BUILTIN_NAME,
    DEFAULT_R_GRID,
    RATIO_CEILING,
    DivergenceRecord,
    DivergenceScan,
    ce_lower_bound,
    counterexample_disk_function,
    counterexample_map,
    divergence_scan,
    radial_image_bound,
    simplified_lower_bound,
    unit_modulus_check,
)
from .errors import (
    ConfigError,
    DomainError,
    NormalizationError,
    OverflowRefusalError,
    ShearmapsError,
    UncertifiedMapError,
    UnsupportedRepresentationError,
)
from .geometry import (
    DEFAULT_SEED,
    VIOLATION_THRESHOLD,
    SamplerConfig,
    ScanReport,
    default_alpha_grid,
    eq1_residual,
    eq1_scan,
    starlike_quantity,
    starlike_scan,
)
from .growth import (
    GrowthRecord,
    growth_conformance_scan,
    s0_growth_bound,
    shear_opnorm,
    unipotent_opnorm,
)
from .series import (
    OVERFLOW_LOG_THRESHOLD,
    BallPoint,
    CoefficientSeries,
    DiskFunction,
    coeff_sum_s1,
    coeff_sum_s2,
    disk_function_from_series,
    dump_series_spec,
    load_series_spec,
    parse_series_spec,
    tail_sum,
)
from .shear import (
    STARLIKE_SUM_LIMIT,
    Certificate,
    ShearingMap,
    all_certificates,
    embed_certificate,
    shear_from_series,
    starlike_certificate,
    starshapelike_certificate,
)

__version__ = "0.1.0"

# the imports above are the one declaration of the public API
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
