"""Operator-norm growth bounds for shearing maps.

The Jacobian of a shearing map is unipotent, [[1, g'(z2)], [0, 1]], so its
operator norm depends only on m = |g'(z2)| and equals (m + sqrt(m^2+4))/2.
For maps embeddable into a normal Loewner chain the norm obeys the ceiling

    ||df(z)|| <= (1 + sqrt(r))^2 / (1 - r)^3        for |z| <= r,

obtained by chasing a Schwarz-Pick-type estimate 1/((1-rho)^2 (1-|zeta|^2))
through the chain; the two bounds agree exactly at rho = |zeta| = sqrt(r).
growth_conformance_scan samples the left side against the ceiling for maps
carrying a starlike certificate (the only embeddability witness this
package trusts) and refuses anything uncertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, UncertifiedMapError
from .geometry import _map_chunks
from .series import as_ball_point
from .shear import Jacobian2, ShearingMap, starlike_certificate

# Sampled sup may exceed the ceiling by at most this before it counts as a
# conformance violation (absorbs evaluation rounding only).
CONFORMANCE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GrowthRecord:
    """One radius of a conformance scan: sampled sup ||df|| vs the ceiling."""

    r: float
    sup_norm: float
    bound: float
    conforms: bool


def _validate_matrix(j: Jacobian2) -> tuple[complex, complex, complex, complex]:
    entries = (j.a11, j.a12, j.a21, j.a22)
    for e in entries:
        z = complex(e)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError(f"matrix entries must be finite, got {z!r}")
    return entries


def opnorm2_pair(j: Jacobian2) -> tuple[float, float]:
    """Both singular values of a complex 2x2 matrix via the closed form
    sigma^2 = (T +- sqrt(T^2 - 4D))/2 with T = sum |entries|^2, D = |det|^2.
    The smaller root uses the cancellation-free form 2D/(T + sqrt(disc))."""
    a, b, c, d = _validate_matrix(j)
    # prescale by the largest entry so T^2 and D stay in range (the raw
    # squared-domain formula under/overflows for entries near 1e-150 / 1e150)
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if scale == 0.0:
        return 0.0, 0.0
    a, b, c, d = a / scale, b / scale, c / scale, d / scale
    t = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    det = abs(a * d - b * c) ** 2
    disc = t * t - 4.0 * det
    if disc < 0.0:
        # T^2 - 4D = (sigma1^2 - sigma2^2)^2 >= 0; a negative value is
        # rounding noise and must be tiny relative to T^2
        if -disc > 1e-12 * t * t:
            raise DomainError(f"singular-value discriminant {disc!r} is not rounding noise")
        disc = 0.0
    root = math.sqrt(disc)
    smax = scale * math.sqrt((t + root) / 2.0)
    smin = scale * (math.sqrt(2.0 * det / (t + root)) if t + root > 0.0 else 0.0)
    return smax, smin


def opnorm2(j: Jacobian2) -> float:
    """Largest singular value (spectral operator norm) of a 2x2 matrix."""
    return opnorm2_pair(j)[0]


def unipotent_opnorm(m: float) -> float:
    """Operator norm of [[1, m], [0, 1]]: (|m| + sqrt(m^2 + 4))/2."""
    m = abs(float(m))
    return (m + math.hypot(m, 2.0)) / 2.0


def shear_opnorm(f: ShearingMap, point) -> float:
    """||df(z)|| for a shearing map; depends on z only through |g'(z2)|."""
    p = as_ball_point(point)
    return unipotent_opnorm(abs(f.g.deriv(p.z2)))


def s0_growth_bound(r: float) -> float:
    """Ceiling (1 + sqrt(r))^2 / (1 - r)^3 for ||df|| on |z| <= r."""
    r = float(r)
    if not (0.0 <= r < 1.0):
        raise DomainError(f"r must lie in [0, 1), got {r!r}")
    return (1.0 + math.sqrt(r)) ** 2 / (1.0 - r) ** 3


def schwarz_pick_bound(rho: float, zeta_norm: float) -> float:
    """Intermediate estimate 1/((1 - rho)^2 (1 - |zeta|^2)); equals
    s0_growth_bound(r) at rho = |zeta| = sqrt(r)."""
    rho = float(rho)
    zn = float(zeta_norm)
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1), got {rho!r}")
    if not (0.0 <= zn < 1.0):
        raise DomainError(f"zeta_norm must lie in [0, 1), got {zn!r}")
    return 1.0 / ((1.0 - rho) ** 2 * (1.0 - zn * zn))


def growth_conformance_scan(
    f: ShearingMap,
    r_values: Sequence[float],
    n_angular: int = 2048,
    workers: int = 1,
) -> list[GrowthRecord]:
    """Sampled sup of ||df|| over |z2| <= r versus the ceiling, one record
    per radius.  Requires a starlike certificate (typed refusal otherwise).
    The norm depends only on |g'(z2)|, and g' is holomorphic, so by the
    maximum modulus principle its sup over the disk |z2| <= r is attained on
    the circle |z2| = r; the scan samples that circle at n_angular uniform
    angles.  All circles are evaluated as one array, in point chunks that
    workers spreads over threads."""
    cert = starlike_certificate(f)
    if not cert.certified:
        raise UncertifiedMapError(
            "growth conformance requires a starlike-certified map "
            f"(margin {cert.margin!r}); refusing an uncertified input"
        )
    rs = [float(r) for r in r_values]
    if not rs:
        raise ConfigError("r grid must be nonempty")
    for r in rs:
        if not (0.0 < r < 1.0):
            raise DomainError(f"scan radii must lie in (0, 1), got {r!r}")
    if n_angular < 1:
        raise ConfigError(f"n_angular must be >= 1, got {n_angular}")
    phi = np.arange(n_angular) * (2.0 * math.pi / n_angular)
    z2 = (np.asarray(rs)[:, None] * np.exp(1j * phi)).ravel()
    m = np.empty(z2.size)

    def run(sl: slice):
        m[sl] = np.abs(f.g.deriv_raw(z2[sl]))

    _map_chunks(run, z2.size, workers)
    sups = [unipotent_opnorm(float(x)) for x in m.reshape(len(rs), n_angular).max(axis=1)]
    return [
        GrowthRecord(r=r, sup_norm=s, bound=b, conforms=s <= b + CONFORMANCE_TOLERANCE)
        for r, s, b in zip(rs, sups, map(s0_growth_bound, rs))
    ]
