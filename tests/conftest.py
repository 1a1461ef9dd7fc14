"""Shared fixture builders for the test suite.

The geometric series a_k = 2^-k (k = 2..40 stored, exact tail bound for the
rest) is the workhorse: its evaluation, derivative, coefficient sums and
tails all have closed forms, so tests can pin results to independent oracles.
"""

import dataclasses

import numpy as np

from shearmaps import BallPoint, CoefficientSeries, ShearingMap, shear_from_series

GEOMETRIC_M = 40
# sum_{k>M} k 2^-k = (M+2) * 2^(1-M) exactly; for M=40 that is 84 * 2^-41
GEOMETRIC_TAIL = 84.0 * 2.0**-41


def geometric_series() -> CoefficientSeries:
    coeffs = tuple(2.0**-k for k in range(2, GEOMETRIC_M + 1))
    return CoefficientSeries(coeffs, tail_bound=GEOMETRIC_TAIL)


def geometric_shear():
    return shear_from_series(geometric_series(), label="geometric")


def geometric_eval(zeta: complex) -> complex:
    """Full-series closed form sum_{k>=2} (zeta/2)^k = zeta^2 / (4 - 2 zeta)."""
    return zeta * zeta / (4.0 - 2.0 * zeta)


def geometric_deriv(zeta: complex) -> complex:
    return (8.0 * zeta - 2.0 * zeta * zeta) / (4.0 - 2.0 * zeta) ** 2


def monomial_shear(a2, label="monomial"):
    return shear_from_series(CoefficientSeries((complex(a2),)), label=label)


def bounded_nine_term_shear():
    """Nine-term shear with S2 = 2.5 * (1 - 2^-9) < 3*sqrt(3)/2 (certified)."""
    coeffs = tuple(2.5 / ((k - 1) * 2.0 ** (k - 1)) for k in range(2, 11))
    return shear_from_series(CoefficientSeries(coeffs), label="nine-term")


def heavy_nine_term_shear():
    """Same shape with coefficients doubled: S2 = 2.5 * (2 - 2^-8) = 4.990234375,
    which exceeds the starlike ceiling, so no certificate is possible."""
    coeffs = tuple(2.5 / ((k - 1) * 2.0 ** (k - 2)) for k in range(2, 11))
    return shear_from_series(CoefficientSeries(coeffs), label="nine-term-heavy")


def random_ball_points(rng: np.random.Generator, n: int, radius: float = 0.95):
    s = radius * rng.random(n) ** 0.25
    t = rng.random(n)
    p1 = 2.0 * np.pi * rng.random(n)
    p2 = 2.0 * np.pi * rng.random(n)
    z1 = s * np.sqrt(1.0 - t) * np.exp(1j * p1)
    z2 = s * np.sqrt(t) * np.exp(1j * p2)
    return [BallPoint(complex(a), complex(b)) for a, b in zip(z1, z2)]


KERNELS = ("eval_raw", "deriv_raw", "log_abs_raw", "deriv_log_abs_raw")


def counted_shear(f):
    """f with every supplied kernel wrapped to count the points it receives."""
    counts = {}

    def counted(name, fn):
        def kernel(z):
            counts[name] = counts.get(name, 0) + np.size(z)
            return fn(z)
        return kernel

    g = f.g
    kernels = {k: counted(k, getattr(g, k)) for k in KERNELS if getattr(g, k) is not None}
    wrapped = ShearingMap(dataclasses.replace(g, **kernels))
    counts.clear()  # the normalization check at 0
    return wrapped, counts
