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

By the maximum modulus principle the scan samples only the circles
|z2| = r.  On n uniform angles a circle is one DFT: with w = exp(2 pi i/n),
g'(r w^j) = sum_m x[m] w^(jm) for x[m] = sum_{k-1 = m mod n} k a_k r^(k-1),
the powers at or above n folded into n slots (series.circle_values).  One
inverse FFT of every circle screens the samples: the (radii x n) table of
the x[m] is built once and transformed in place, so the result takes no
second complex array of that size.  The Horner kernel deriv_raw runs only where
the screen comes within 2 eps_r of the circle's screen maximum; eps_r
bounds the FFT's, Horner's and the sample point's rounding
(_screen_slack).  The candidates are read off one flat index of the
screen, row-major, so they come sorted by circle, each circle's
ascending.  The Horner maximum is always among those
candidates, so the records are those of a Horner pass over every sample,
bit for bit.  The benchmark maps keep one candidate per circle.  A map with
constant |g'| on the circle (a monomial) keeps all n, so there the FFT
comes on top of the full Horner pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, UncertifiedMapError
from .series import DEFAULT_ANGULAR, circle_values, require_point_count
from .shear import ShearingMap, starlike_certificate, unipotent_opnorm

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


def s0_growth_bound(r: float) -> float:
    """Ceiling (1 + sqrt(r))^2 / (1 - r)^3 for ||df|| on |z| <= r."""
    r = float(r)
    if not (0.0 <= r < 1.0):
        raise DomainError(f"r must lie in [0, 1), got {r!r}")
    return (1.0 + math.sqrt(r)) ** 2 / (1.0 - r) ** 3


def _screen_slack(slopes: np.ndarray, r: np.ndarray, n: int) -> np.ndarray:
    """eps_r, per radius, with |F_j - H_j| <= eps_r at every sample j of the
    circle |z2| = r.  F is the FFT screen |circle_values(slopes, r, n)|,
    slopes[k-1] = k a_k the coefficients of g', and H the Horner value
    |deriv_raw| at the double z_j = fl(r * exp(1j * phi_j)).

    With u = 2^-53, M = slopes.size the largest stored index,
    rho = r (1 + 1e-15) and S = sum_k k |k a_k| rho^(k-1) (which bounds
    A = sum_k |k a_k| r^(k-1)), let G_j = g'(r w^j) exactly, w = exp(2 pi i/n):
      * Horner: M - 1 complex multiply-adds on the rounded k a_k and a final
        multiply give |H_j - |g'(z_j)|| <= 8 M u S (each step rounds by at
        most 4u relative to the absolute-value majorant, Higham Ch. 5).
      * Point: phi_j = j fl(2 pi/n) carries at most 3u relative error, so
        |phi_j - 2 pi j/n| <= 19u; exp and the product with r add at most
        5u r.  Hence |z_j - r w^j| <= 24 u r and |z_j| <= rho, and
        |g'(z_j) - G_j| <= 24 u r sum_k (k-1)|k a_k| rho^(k-2) <= 24 u S.
      * FFT: the folded x[m] carry at most ceil(M/n) + 4 rounding errors
        relative to A (powers r^e within a few ulps, one product, the fold
        sums).  A length-n FFT with twiddle errors near u is accurate to
        ||y_err||_2 <= log2(n) eta ||y||_2, eta <= 8u, and ||y||_2 = sqrt(n)
        ||x||_2 <= sqrt(n) A (Higham Thm 24.2), which bounds every entry.
        So ||F_j| - |G_j|| <= (8 log2(n) sqrt(n) + ceil(M/n) + 4) u S.
    Each term is below 8 u (M + log2(n) sqrt(n) + ceil(M/n) + 32) S, and the
    factor 64 leaves 8x room for pocketfft's mixed-radix and Bluestein
    passes and for the rounding of the bound itself.  Results in the
    subnormal range carry an absolute error of at most 2^-1074 per
    operation instead; fewer than 2^60 operations reach one sample, so
    2^-900 covers them."""
    m = slopes.size
    k = np.arange(1, m + 1)
    majorant = (k * np.abs(slopes) * (r[:, None] * (1.0 + 1e-15)) ** (k - 1)).sum(axis=1)
    steps = m + math.log2(n) * math.sqrt(n) + -(-m // n) + 32
    return 64.0 * 2.0**-53 * steps * majorant + 2.0**-900


def growth_conformance_scan(
    f: ShearingMap,
    r_values: Sequence[float],
    n_angular: int = DEFAULT_ANGULAR,
    workers: int = 1,
) -> list[GrowthRecord]:
    """Sampled sup of ||df|| over |z2| <= r versus the ceiling, one record
    per radius.  Requires a starlike certificate (typed refusal otherwise).
    The norm depends only on |g'(z2)|, and g' is holomorphic, so by the
    maximum modulus principle its sup over the disk |z2| <= r is attained on
    the circle |z2| = r; the scan samples that circle at n_angular uniform
    angles.  The record's sample maximum is the largest |f.g.deriv_raw| over
    the points r * exp(1j * phi), phi = j * (2 pi / n_angular).

    Every circle is screened with one FFT (circle_values), and deriv_raw
    runs only on the candidates that come within 2 eps_r of the screen's
    maximum (_screen_slack).  The sample j* where deriv_raw is largest is
    always a candidate, since |F_j - H_j| <= eps_r gives
    F_j* >= H_j* - eps_r >= H_j - eps_r >= F_j - 2 eps_r for every j, so the
    records equal those of a deriv_raw pass over every sample bit for bit.
    The screen reads g's coefficients, so deriv_raw must evaluate the same
    series, as disk_function_from_series builds it.  workers is accepted
    for compatibility and has no effect: a worker pool measured slower than
    one thread, and the records never depended on it."""
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
    require_point_count(len(rs) * n_angular, f"{len(rs)} circles x {n_angular} angles")
    r = np.asarray(rs)
    # g'(z) = sum_k k a_k z^(k-1), with a_1 = 0
    coeffs = f.g.coefficients.coeffs
    slopes = np.arange(1, len(coeffs) + 2) * np.asarray((0j, *coeffs))
    screen = np.abs(circle_values(slopes, r, n_angular))
    floor = screen.max(axis=1) - 2.0 * _screen_slack(slopes, r, n_angular)
    # flat indices are row-major, so the candidates come sorted by row
    rows, cols = np.divmod(np.flatnonzero(screen >= floor[:, None]), n_angular)
    z2 = r[rows] * np.exp(1j * (cols * (2.0 * math.pi / n_angular)))
    values = np.abs(f.g.deriv_raw(z2))
    m = np.maximum.reduceat(values, np.searchsorted(rows, np.arange(len(rs))))
    sups = [unipotent_opnorm(float(x)) for x in m]
    return [
        GrowthRecord(r=r, sup_norm=s, bound=b, conforms=s <= b + CONFORMANCE_TOLERANCE)
        for r, s, b in zip(rs, sups, map(s0_growth_bound, rs))
    ]
