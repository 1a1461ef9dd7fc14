"""Built-in boundary-oscillation shear whose derivative growth is unbounded
relative to the normal-chain ceiling.

The map is f(z1, z2) = (z1 + z2^2 h(z2), z2) with h(zeta) = exp(i/(1-zeta)^3).
On the real radius h has unit modulus, so f maps (0, r) to a bounded point
(|f(0, r)| = r sqrt(1+r^2) < sqrt(2)), yet

    ||df(0, r)|| >= 3 r^2/(1-r)^4 - (1 + 2r) >= 2 r^2/(1-r)^4   on r in (1/2, 1),

so the ratio ||df(0, r)|| (1-r)^3 diverges like 1/(1-r) while every map
embeddable into a normal Loewner chain keeps that ratio below the ceiling 4.
divergence_scan tabulates the ratio over a radius grid and issues a verdict
against 4*C_report.

The modulus of h is evaluated as exp(Re i/(1-zeta)^3) with the phase handled
by the C library's sine/cosine argument reduction, so |h(r)| = 1 holds to
machine precision arbitrarily close to r = 1; magnitude comparisons route
through the log-magnitude evaluator log|g| = 2 log|zeta| - Im(1/(1-zeta)^3)
and plain evaluation is refused beyond the double-overflow threshold.

The log kernels keep the DiskFunction promise the ball scans' screen relies
on.  With u = 2^-53, v = (1-zeta)^3 is computed by the same expression in
every kernel, so only the later roundings separate log_abs_raw from
log|eval_raw|: the quotients i/v and 1/v, whose real and imaginary parts err
by a few u |v|^-1 = u |1-zeta|^-3 each; the modulus of the complex exp and of
the products with zeta (a few u relative); and log|zeta| and the final
subtraction (u (1 + |log|zeta||)).  The two differ by at most
c u (1 + |log|zeta|| + |1-zeta|^-3) nats for a small constant c, and so do
deriv_log_abs_raw and log|deriv_raw|, which share the prefactor
2 zeta + 3i zeta^2/(1-zeta)^4 bit for bit.  On 45,000 random points of
|zeta| <= 1 - 2^-8, near 1 and down to |zeta| = 1e-300 as well, c stayed
below 5.  There |1-zeta|^-3 <= 2^24 and |log|zeta|| <= 745 above the
subnormal range, so the bound stays below 2^-26, within LOG_KERNEL_ETA =
2^-20; below that range the promise's 2^-1000 absolute slack applies.

The radial bound log_max_abs(t) = 2 log t + (1-t)^-3 + LOG_KERNEL_ETA keeps
the DiskFunction promise for it.  On |zeta| <= t, |exp(i v^-1)| =
e^(-Im v^-1) <= e^(|1-zeta|^-3) <= e^((1-t)^-3), so the exact log|g| is at
most 2 log t + (1-t)^-3 (the maximum modulus principle, read off the
exponent).  log_abs_raw errs from the exact log|g| by at most
c u (1 + |log|zeta|| + |1-zeta|^-3), the estimate above with the few
roundings of v itself added to those of 1/v, and the computed bound errs
from its exact value by a few u (|2 log t| + (1-t)^-3): log t, the cube of
1 - t, its reciprocal and the two sums.  On t <= 1 - 2^-8 each error stays
below 2^-26 as above, so LOG_KERNEL_ETA covers both with room to spare.
Every term is nondecreasing in t, and so is its computed value, because
log, products, the reciprocal of a positive number and sums round
monotonically.

The radial bound deriv_log_max_abs(t) = log(2t + 3t^2/(1-t)^4) + (1-t)^-3
+ LOG_KERNEL_ETA keeps the promise for deriv_log_abs_raw.  On |zeta| <= t,
|1-zeta| >= 1-t bounds the prefactor, |2 zeta + 3i zeta^2/(1-zeta)^4| <=
2t + 3t^2/(1-t)^4, and -Im v^-1 <= |1-zeta|^-3 <= (1-t)^-3 its phase as
above.  The computed prefactor's modulus is at most its two terms' moduli
times 1 + a few u, even where the terms cancel, so log of it errs above
the exact log(2t + 3t^2/(1-t)^4) by a few u; its Im v^-1 errs by
c u |1-zeta|^-3; and the computed bound errs from its exact value by a few
u (1 + |log(2t + 3t^2/(1-t)^4)| + (1-t)^-3), where the log lies between
-745 and 24 above the subnormal range.  Each error stays below 2^-26 as
above, and LOG_KERNEL_ETA covers them.  2t, 3t^2, (1-t)^-4, the log and
(1-t)^-3 are nondecreasing in t, and so are their computed values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, DomainError
from .series import LOG_KERNEL_ETA, DiskFunction
from .shear import ShearingMap, shear_opnorm

BUILTIN_NAME = "counterexample"

# Ratio ceiling obeyed by every normal-chain embeddable map: (1+sqrt(r))^2 <= 4.
RATIO_CEILING = 4.0

VERDICT_AFFIRMATIVE = (
    "no constant C satisfies opnorm(df(0,r)) <= 4*C/(1-r)^3 over this grid"
)
VERDICT_INSUFFICIENT_GRID = "insufficient grid"


def _phase(z):
    """h(z) = exp(i/(1-z)^3), the factor of g and g'.  An exponent w that is
    a Python complex takes cmath.exp, so a scalar evaluation (DiskFunction's
    normalization check, a scan's witness) loads no numpy.  cmath.exp and
    numpy's exp both take e^Re(w) times cos and sin of Im(w), so their bits
    agree, except above Re(w) = log(DBL_MAX/4), about 708.4, where CPython
    rescales, and where cmath.exp raises OverflowError and numpy returns inf
    with a warning.  From Re(w) = 708 on, at a non-finite w and for arrays,
    numpy's exp runs, so every result keeps numpy's bits."""
    w = 1j / (1.0 - z) ** 3
    if type(w) is complex and cmath.isfinite(w) and w.real < 708.0:
        return cmath.exp(w)
    import numpy as np

    return np.exp(w)


def _g_raw(z):
    return z * z * _phase(z)


def _deriv_raw(z):
    return (2.0 * z + 3j * z * z / (1.0 - z) ** 4) * _phase(z)


def _log_abs_raw(z):
    import numpy as np

    with np.errstate(divide="ignore"):
        return 2.0 * np.log(np.abs(z)) - np.imag(1.0 / (1.0 - z) ** 3)


def _deriv_log_abs_raw(z):
    import numpy as np

    with np.errstate(divide="ignore"):
        pref = np.log(np.abs(2.0 * z + 3j * z * z / (1.0 - z) ** 4))
    return pref - np.imag(1.0 / (1.0 - z) ** 3)


def _log_max_abs(t):
    import numpy as np

    d = 1.0 - t
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(t) + 1.0 / (d * d * d) + LOG_KERNEL_ETA


def _deriv_log_max_abs(t):
    import numpy as np

    d = 1.0 - t
    with np.errstate(divide="ignore"):
        return np.log(2.0 * t + 3.0 * t * t / (d * d) ** 2) + 1.0 / (d * d * d) + LOG_KERNEL_ETA


def counterexample_disk_function() -> DiskFunction:
    return DiskFunction(
        eval_raw=_g_raw,
        deriv_raw=_deriv_raw,
        log_abs_raw=_log_abs_raw,
        deriv_log_abs_raw=_deriv_log_abs_raw,
        log_max_abs=_log_max_abs,
        deriv_log_max_abs=_deriv_log_max_abs,
        coefficients=None,
        label=BUILTIN_NAME,
    )


def counterexample_map() -> ShearingMap:
    return ShearingMap(counterexample_disk_function())


def unit_modulus_check(r_values: Sequence[float]) -> float:
    """Max over the grid of ||h(r)| - 1| for h = exp(i/(1-r)^3); the exponent
    is purely imaginary on the real radius, so the deviation is pure rounding."""
    import numpy as np

    rs = np.asarray([float(r) for r in r_values], dtype=float)
    if rs.size == 0:
        raise ConfigError("r grid must be nonempty")
    if np.any(rs <= 0.0) or np.any(rs >= 1.0):
        raise DomainError("r values must lie in (0, 1)")
    h = np.exp(1j / (1.0 - rs) ** 3)
    return float(np.max(np.abs(np.abs(h) - 1.0)))


def ce_lower_bound(r: float) -> float:
    """Certified lower bound 3 r^2/(1-r)^4 - (1+2r) for ||df(0, r)||, valid
    on r in (1/2, 1) where it also dominates 2 r^2/(1-r)^4."""
    r = float(r)
    if not (0.5 < r < 1.0):
        raise DomainError(f"lower bound is only claimed on (1/2, 1), got r = {r!r}")
    return 3.0 * r * r / (1.0 - r) ** 4 - (1.0 + 2.0 * r)


def simplified_lower_bound(r: float) -> float:
    """Weaker companion bound 2 r^2/(1-r)^4 on the same range."""
    r = float(r)
    if not (0.5 < r < 1.0):
        raise DomainError(f"lower bound is only claimed on (1/2, 1), got r = {r!r}")
    return 2.0 * r * r / (1.0 - r) ** 4


def radial_image_bound(r: float) -> float:
    """||f(0, r)|| computed from the map itself; equals r sqrt(1+r^2) < sqrt(2)
    because |h(r)| = 1."""
    r = float(r)
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    w1, w2 = counterexample_map().eval((0.0j, r))
    return math.hypot(abs(w1), abs(w2))


@dataclass(frozen=True)
class DivergenceRecord:
    """One radius of a divergence scan.  ratio = opnorm * (1-r)^3; ceiling is
    the constant 4 that normal-chain embeddable maps cannot exceed."""

    r: float
    opnorm: float
    lower_bound: float
    simplified_bound: float
    ratio: float
    ceiling: float = RATIO_CEILING

    def __post_init__(self):
        """Refuse an opnorm below lower_bound (1 - 2^-44).  The exact norm
        exceeds the exact bound 3 r^2/(1-r)^4 - (1+2r) by 1 + 2r or more,
        less than one rounding of either once r nears 1.  With u = 2^-53
        and 1 - r exact: g'(r)'s prefactor has real part 2r and imaginary
        part 3 r^2/(1-r)^4 within 5u; its phase exp(i/(1-r)^3) has modulus
        1 within 2u; the product, abs and unipotent_opnorm add 6u, so
        opnorm lies within 13u of the exact norm.  ce_lower_bound rounds 4
        times in 3 r^2/(1-r)^4 (at most 1.2 times the bound on (1/2, 1)),
        once in 1 + 2r and once in the difference: within 6u.  So opnorm >=
        lower_bound (1 - 20u); 2^-44 = 512u, geometry._ROUND's margin,
        leaves 25x room.  On 60,000 radii the worst shortfall was below 5u."""
        if self.opnorm < self.lower_bound * (1.0 - 2.0**-44):
            raise DomainError(
                f"opnorm {self.opnorm!r} fell below its certified lower bound "
                f"{self.lower_bound!r} at r = {self.r!r}"
            )


@dataclass(frozen=True)
class DivergenceScan:
    records: tuple[DivergenceRecord, ...]
    verdict: str
    affirmative: bool
    c_report: float


DEFAULT_R_GRID = (0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
DEFAULT_C_REPORT = 10.0


def divergence_scan(
    r_grid: Sequence[float] | None = None,
    c_report: float = DEFAULT_C_REPORT,
) -> DivergenceScan:
    """Tabulate opnorm, the certified lower bounds and the ratio over a
    strictly increasing grid in (1/2, 1); the verdict is affirmative when the
    ratio is monotone increasing and exceeds 4*C_report at the grid tail.
    A single-point grid yields the withheld verdict "insufficient grid"."""
    rs = [float(r) for r in (r_grid if r_grid is not None else DEFAULT_R_GRID)]
    if not rs:
        raise ConfigError("r grid must be nonempty")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ConfigError(f"r grid must be strictly increasing, got {rs!r}")
    if rs[0] <= 0.5 or rs[-1] >= 1.0:
        raise ConfigError(f"r grid must lie inside (1/2, 1), got {rs!r}")
    c_report = float(c_report)
    if not (math.isfinite(c_report) and c_report >= 1.0):
        raise ConfigError(f"C_report must be a finite number >= 1, got {c_report!r}")
    f = counterexample_map()

    def record(r: float) -> DivergenceRecord:
        opnorm = shear_opnorm(f, (0.0j, r))
        return DivergenceRecord(
            r=r,
            opnorm=opnorm,
            lower_bound=ce_lower_bound(r),
            simplified_bound=simplified_lower_bound(r),
            ratio=opnorm * (1.0 - r) ** 3,
        )

    records = tuple(record(r) for r in rs)
    if len(records) < 2:
        return DivergenceScan(records, VERDICT_INSUFFICIENT_GRID, False, c_report)
    monotone = all(b.ratio > a.ratio for a, b in zip(records, records[1:]))
    exceeded = records[-1].ratio > RATIO_CEILING * c_report
    if monotone and exceeded:
        return DivergenceScan(records, VERDICT_AFFIRMATIVE, True, c_report)
    if not monotone:
        verdict = "not affirmative: ratio is not monotone increasing over this grid"
    else:
        verdict = (
            f"not affirmative: ratio {records[-1].ratio!r} at the grid tail "
            f"does not exceed 4*C_report = {RATIO_CEILING * c_report!r}"
        )
    return DivergenceScan(records, verdict, False, c_report)
