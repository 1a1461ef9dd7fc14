"""Core types for power series on the unit disk and points of the unit ball.

A disk function is a holomorphic g on the open unit disk normalized by
g(0) = g'(0) = 0.  The coefficient-backed representation stores the Taylor
coefficients a_2..a_M (indices 0 and 1 are structurally absent) together with
an optional bound on the weighted tail sum_{k>M} k|a_k|.  Closed-form
representations carry evaluators only; coefficient functionals then report a
distinguished non-finite state instead of guessing.

Log-magnitude evaluators belong to closed forms only, whose log|g| stays
finite past double overflow.  For a coefficient series log|g| is derived
from the computed value, so each point is evaluated once.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NormalizationError,
    OverflowRefusalError,
)

# Plain (non-log) evaluation is refused beyond this log-magnitude; doubles
# overflow at e^709.78, and the margin keeps downstream products finite.
OVERFLOW_LOG_THRESHOLD = 700.0

_COEFF_START = 2

# Most points a grid, sampling plan or set of circles may hold.  2^50
# complex doubles fill 2^54 bytes (16 PiB), more than any host has, and
# numpy's largest array (2^63 bytes) is 2^9 times larger: past it numpy
# raises a ValueError instead of a MemoryError.
MAX_POINTS = 2**50

# The log kernels of a closed form agree with its values within this many
# nats on the closed disk of this radius (see DiskFunction).
LOG_KERNEL_ETA = 2.0**-20
LOG_KERNEL_RADIUS = 1.0 - 2.0**-8


def require_point_count(count: int, what: str) -> None:
    """Refuse a count (a Python int, so it never overflows) above MAX_POINTS
    before any array of that size is built."""
    if count > MAX_POINTS:
        raise ConfigError(f"{what} ({count}) exceeds the limit of {MAX_POINTS} points")


def require_finite_complex(value, what: str = "value") -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{what} must be finite, got {z!r}")
    return z


def require_disk_point(zeta, what: str = "zeta") -> complex:
    z = require_finite_complex(zeta, what)
    if abs(z) >= 1.0:
        raise DomainError(f"{what} must lie in the open unit disk, got |{what}| = {abs(z)!r}")
    return z


@dataclass(frozen=True)
class BallPoint:
    """A point (z1, z2) of the open unit ball |z1|^2 + |z2|^2 < 1 in C^2."""

    z1: complex
    z2: complex

    def __post_init__(self):
        object.__setattr__(self, "z1", require_finite_complex(self.z1, "z1"))
        object.__setattr__(self, "z2", require_finite_complex(self.z2, "z2"))
        try:
            norm_sq = self.norm_sq
        except OverflowError:  # |z|^2 beyond double range
            norm_sq = math.inf
        if norm_sq >= 1.0:
            raise DomainError(
                f"point must lie in the open unit ball, got |z|^2 = {norm_sq!r}"
            )

    @property
    def norm_sq(self) -> float:
        return abs(self.z1) ** 2 + abs(self.z2) ** 2

    def as_tuple(self) -> tuple[complex, complex]:
        return (self.z1, self.z2)


def as_ball_point(point) -> BallPoint:
    """Coerce a BallPoint or 2-sequence of complex numbers, validating."""
    if isinstance(point, BallPoint):
        return point
    z1, z2 = point
    return BallPoint(z1, z2)


@dataclass(frozen=True)
class CoefficientSeries:
    """Taylor coefficients a_2..a_M of a normalized disk function.

    tail_bound semantics:
      * None     -- the coefficients are the whole series (exact polynomial);
      * x >= 0   -- the stored coefficients are a truncation and
                    sum_{k>M} k|a_k| <= x (x = inf declares an unbounded,
                    non-finite tail).
    """

    coeffs: tuple[complex, ...]
    tail_bound: float | None = None

    def __post_init__(self):
        cs = tuple(
            require_finite_complex(a, f"coefficient a_{k + _COEFF_START}")
            for k, a in enumerate(self.coeffs)
        )
        object.__setattr__(self, "coeffs", cs)
        if self.tail_bound is not None:
            tb = float(self.tail_bound)
            if math.isnan(tb) or tb < 0.0:
                raise DomainError(f"tail_bound must be >= 0, got {tb!r}")
            object.__setattr__(self, "tail_bound", tb)

    @property
    def start(self) -> int:
        return _COEFF_START

    @property
    def max_index(self) -> int:
        """Largest stored index M (1 when no coefficients are stored)."""
        return _COEFF_START - 1 + len(self.coeffs)

    def coefficient(self, k: int) -> complex:
        """a_k for any k >= 2 (0 beyond the stored range)."""
        if k < _COEFF_START:
            raise DomainError(f"coefficient index must be >= {_COEFF_START}, got {k}")
        i = k - _COEFF_START
        return self.coeffs[i] if i < len(self.coeffs) else 0.0j


def _horner_loop(terms, z):
    # p = p * z + t over the terms from p = 0 * z, bit for bit: the first
    # step allocates p with the result dtype, later ones update it in place,
    # except on one point, which numpy multiplies in place without the fused
    # multiply-add of its out-of-place loop (another rounding).
    p = 0.0 * z
    in_place = isinstance(z, np.ndarray) and z.size > 1
    for i, t in enumerate(terms):
        if in_place and i:
            p *= z
            p += t
        else:
            p = p * z + t
    return p


def _horner(coeffs: tuple[complex, ...], z):
    # sum_{k=2..M} a_k z^k  ==  z^2 * (a_2 + z*(a_3 + ...)), scalar or ndarray
    return _horner_loop(coeffs[::-1], z) * z * z


def _horner_deriv(coeffs: tuple[complex, ...], z):
    # sum_{k=2..M} k a_k z^(k-1)  ==  z * (2 a_2 + z*(3 a_3 + ...))
    terms = [k * a for k, a in enumerate(coeffs, start=_COEFF_START)][::-1]
    p = _horner_loop(terms, z) * z
    # g'(0) = 0 for every normalized map: where 2 a_2 overflows, inf * 0
    # would make it NaN.  Only non-finite results at z = 0 are replaced.
    if isinstance(p, np.ndarray):
        p[(z == 0) & ~np.isfinite(p)] = 0
    elif z == 0 and not cmath.isfinite(p):
        p = 0j
    return p


def circle_values(coeffs, radii, n: int) -> np.ndarray:
    """p(r exp(2 pi i j/n)) for p(z) = sum_e coeffs[e] z^e, j = 0..n-1, one
    row per radius r: one inverse DFT per circle.  With w = exp(2 pi i/n),
    p(r w^j) = sum_m x[m] w^(jm) for x[m] = sum_{e = m mod n} coeffs[e] r^e,
    so a degree at or above n folds into n slots and stays exact.  Below n
    the transform pads each row itself, so no zero-padded copy of the
    (radii x n) table is made.  numpy.fft is imported on the first call, so
    importing the package does not load it."""
    from numpy import fft

    c = np.asarray(coeffs, dtype=complex)
    r = np.asarray(radii, dtype=float)
    x = c * r[:, None] ** np.arange(c.size)
    if c.size > n:
        x = np.concatenate([x, np.zeros((r.size, -c.size % n))], axis=1)
        x = x.reshape(r.size, -1, n).sum(axis=1)
    return fft.ifft(x, n=n, axis=1, norm="forward")


def _sum_with_tail(terms, series: CoefficientSeries) -> float:
    """fsum of nonnegative terms plus the declared tail bound; inf when the
    sum leaves double range (fsum raises on an intermediate overflow)."""
    try:
        total = math.fsum(terms)
    except OverflowError:
        return math.inf
    if series.tail_bound is not None:
        total += series.tail_bound
    return total


def coeff_sum_s1(series: CoefficientSeries) -> float:
    """sum_k k|a_k| plus the declared tail bound; inf marks a non-finite sum."""
    return _sum_with_tail(
        (k * abs(a) for k, a in enumerate(series.coeffs, start=_COEFF_START)), series
    )


def coeff_sum_s2(series: CoefficientSeries) -> float:
    """sum_k (k-1)|a_k| plus the declared tail bound (a valid upper bound,
    since (k-1)|a_k| <= k|a_k|); inf marks a non-finite sum."""
    return _sum_with_tail(
        ((k - 1) * abs(a) for k, a in enumerate(series.coeffs, start=_COEFF_START)), series
    )


def tail_sum(series: CoefficientSeries, n: int) -> float:
    """Upper bound for sum_{k>N} k|a_k|: the stored terms past N plus the
    declared tail bound (which covers every index past M >= N)."""
    if n < 1:
        raise DomainError(f"N must be >= 1, got {n}")
    return _sum_with_tail(
        (k * abs(a) for k, a in enumerate(series.coeffs, start=_COEFF_START) if k > n),
        series,
    )


@dataclass(frozen=True)
class DiskFunction:
    """A normalized holomorphic function on the unit disk.

    The raw callables are array-capable and unguarded; the public eval/deriv
    methods validate the point and refuse (typed error) when the value's
    log-magnitude exceeds OVERFLOW_LOG_THRESHOLD.  The optional log-magnitude
    evaluators belong to closed forms only, whose log|g| and log|g'| stay
    finite past double overflow; without one, log|g| is derived from the
    computed value (log_abs_of).  coefficients is None for closed-form
    representations without coefficient access.  Series maps come from
    disk_function_from_series; closed forms call this constructor directly.

    A closed form that supplies log_abs_raw (and deriv_log_abs_raw) makes a
    promise the ball scans' screen relies on: at every z with
    |z| <= LOG_KERNEL_RADIUS = 1 - 2^-8 where l = log_abs_raw(z) is at most
    the scans' SCAN_LOG_LIMIT (600),

        e^(l - eta) - 2^-1000 <= |eval_raw(z)| <= e^(l + eta) + 2^-1000,

    with eta = LOG_KERNEL_ETA = 2^-20 nats, and the same of
    deriv_log_abs_raw and deriv_raw.  Beyond that radius, and where the log
    exceeds the limit, the kernels promise nothing.  A closed form that
    cannot keep the promise must not supply the log kernels.

    A closed form that also supplies log_max_abs, a radial bound on
    log_abs_raw, promises that it is nondecreasing in t and that

        log_abs_raw(z) <= log_max_abs(t)   for every |z| <= t <= LOG_KERNEL_RADIUS,

    for the computed values of both, which lets the eq1 scan's screen bound
    log|g(a z2)| per circle instead of evaluating it at every point.  The
    bound is stated against log_abs_raw, so it needs that kernel.
    deriv_log_max_abs promises the same for deriv_log_abs_raw, which it
    needs in turn,

        deriv_log_abs_raw(z) <= deriv_log_max_abs(t)   on the same disks,

    and lets the starlike scan's screen bound g and z2 g' per circle.
    """

    eval_raw: Callable = field(repr=False)
    deriv_raw: Callable = field(repr=False)
    log_abs_raw: Callable | None = field(default=None, repr=False)
    deriv_log_abs_raw: Callable | None = field(default=None, repr=False)
    log_max_abs: Callable | None = field(default=None, repr=False)
    deriv_log_max_abs: Callable | None = field(default=None, repr=False)
    coefficients: CoefficientSeries | None = None
    label: str = ""

    def __post_init__(self):
        if self.log_max_abs is not None and self.log_abs_raw is None:
            raise ConfigError("log_max_abs bounds log_abs_raw, which this disk function lacks")
        if self.deriv_log_max_abs is not None and self.deriv_log_abs_raw is None:
            raise ConfigError("deriv_log_max_abs bounds deriv_log_abs_raw, "
                              "which this disk function lacks")
        g0 = complex(self.eval_raw(0.0j))
        dg0 = complex(self.deriv_raw(0.0j))
        if not (abs(g0) <= 1e-12 and abs(dg0) <= 1e-12):  # NaN fails too
            raise NormalizationError(
                f"disk function must satisfy g(0) = g'(0) = 0, "
                f"got g(0) = {g0!r}, g'(0) = {dg0!r}"
            )

    def log_abs_of(self, z, value):
        """log|g(z)| for value = eval_raw(z): the closed-form evaluator when
        present, else log|value| (-inf at zeros, inf past double range)."""
        if self.log_abs_raw is not None:
            return np.asarray(self.log_abs_raw(z), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.abs(value))

    def eval(self, zeta) -> complex:
        z = require_disk_point(zeta)
        with np.errstate(all="ignore"):
            value = self.eval_raw(z)
        la = float(self.log_abs_of(z, value))
        if la > OVERFLOW_LOG_THRESHOLD:
            raise OverflowRefusalError(
                f"|g({z!r})| has log-magnitude {la!r} > {OVERFLOW_LOG_THRESHOLD}; "
                f"use the log-magnitude evaluator"
            )
        return complex(value)

    def deriv(self, zeta) -> complex:
        z = require_disk_point(zeta)
        if self.deriv_log_abs_raw is not None:
            la = float(self.deriv_log_abs_raw(z))
            if la > OVERFLOW_LOG_THRESHOLD:
                raise OverflowRefusalError(
                    f"|g'({z!r})| has log-magnitude {la!r} > {OVERFLOW_LOG_THRESHOLD}; "
                    f"refusing plain evaluation"
                )
        value = complex(self.deriv_raw(z))
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise OverflowRefusalError(f"|g'({z!r})| overflows double precision")
        return value


def disk_function_from_series(series: CoefficientSeries, label: str = "") -> DiskFunction:
    coeffs = series.coeffs

    def eval_raw(z):
        return _horner(coeffs, z)

    def deriv_raw(z):
        return _horner_deriv(coeffs, z)

    return DiskFunction(
        eval_raw=eval_raw,
        deriv_raw=deriv_raw,
        coefficients=series,
        label=label,
    )


def parse_series_spec(text: str, source: str = "<string>") -> CoefficientSeries:
    """Parse the series-spec format: an object with `start` (must be 2),
    `coeffs` as a list of [re, im] pairs for k = 2..M, and an optional
    nonnegative `tail_bound`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source}: invalid series spec at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # digit limit, nesting depth
        raise ConfigError(f"{source}: invalid series spec: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: series spec must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {"start", "coeffs", "tail_bound"})
    if unknown:
        raise ConfigError(f"{source}: unexpected series-spec fields {unknown}")
    if "start" not in doc:
        raise ConfigError(f"{source}: series spec is missing `start`")
    if doc["start"] != _COEFF_START:
        raise ConfigError(f"{source}: `start` must be {_COEFF_START}, got {doc['start']!r}")
    raw = doc.get("coeffs", [])
    if not isinstance(raw, list):
        raise ConfigError(f"{source}: `coeffs` must be a list of [re, im] pairs")
    coeffs = []
    for i, pair in enumerate(raw):
        k = i + _COEFF_START
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise ConfigError(f"{source}: coefficient a_{k} must be a [re, im] pair, got {pair!r}")
        try:
            coeffs.append(complex(pair[0], pair[1]))
        except OverflowError as exc:  # an integer beyond double range
            raise ConfigError(f"{source}: coefficient a_{k}: {exc}") from exc
    tb = doc.get("tail_bound")
    if tb is not None:
        if not isinstance(tb, (int, float)) or isinstance(tb, bool):
            raise ConfigError(f"{source}: `tail_bound` must be a number, got {tb!r}")
        try:
            tb = float(tb)
        except OverflowError as exc:
            raise ConfigError(f"{source}: `tail_bound`: {exc}") from exc
    try:
        return CoefficientSeries(tuple(coeffs), tb)
    except (DomainError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_series_spec(path) -> CoefficientSeries:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: series spec is not valid UTF-8: {exc}") from exc
    return parse_series_spec(text, source=str(path))


def dump_series_spec(series: CoefficientSeries) -> str:
    doc: dict = {
        "start": _COEFF_START,
        "coeffs": [[a.real, a.imag] for a in series.coeffs],
    }
    if series.tail_bound is not None:
        doc["tail_bound"] = series.tail_bound
    return json.dumps(doc, indent=2) + "\n"
