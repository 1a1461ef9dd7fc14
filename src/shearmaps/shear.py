"""Shearing maps of the unit ball and their coefficient certificates.

A shearing map is f(z1, z2) = (z1 + g(z2), z2) with g a normalized disk
function.  Every shearing map is univalent on the ball, with the exact
inverse (w1 - g(w2), w2) and the unipotent Jacobian [[1, g'(z2)], [0, 1]].

Certificates are inclusive coefficient criteria:
  * embeddable:     sum_{k>N} k|a_k| <= 1 for some degree N (minimal N found
                    by bisection, since the tail sum never increases with N);
  * starlike:       sum_k (k-1)|a_k| <= 3*sqrt(3)/2  (sharp constant); a
                    certified starlike map is also normal-chain embeddable,
                    recorded as a derived flag;
  * starshapelike:  sum_k k|a_k| finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UnsupportedRepresentationError
from .series import (
    CoefficientSeries,
    DiskFunction,
    as_ball_point,
    coeff_sum_s1,
    coeff_sum_s2,
    disk_function_from_series,
    require_finite_complex,
    tail_sum,
)

# Sharp constant 3*sqrt(3)/2 of the starlike coefficient criterion.
STARLIKE_SUM_LIMIT = 3.0 * math.sqrt(3.0) / 2.0

DEFAULT_N_MAX = 64

KIND_STARLIKE = "Starlike"
KIND_STARSHAPELIKE = "Starshapelike"
KIND_EMBEDDABLE = "Embeddable"

STATUS_CERTIFIED = "Certified"
STATUS_NOT_CERTIFIED = "NotCertified"


@dataclass(frozen=True)
class Certificate:
    """Outcome of a coefficient criterion.

    margin is the criterion slack: limit minus the tested sum for the
    starlike criterion, 1 - tail_sum(N) for embeddability, and the S1
    value itself for starshapelikeness (inf past double range).  degree is the minimal certified
    embedding degree (present exactly for certified Embeddable results).
    s0_member marks certificates that additionally witness normal-chain
    embeddability with range C^2.
    """

    kind: str
    status: str
    margin: float
    degree: int | None = None
    s0_member: bool = False

    def __post_init__(self):
        if self.kind not in (KIND_STARLIKE, KIND_STARSHAPELIKE, KIND_EMBEDDABLE):
            raise DomainError(f"unknown certificate kind {self.kind!r}")
        if self.status not in (STATUS_CERTIFIED, STATUS_NOT_CERTIFIED):
            raise DomainError(f"unknown certificate status {self.status!r}")
        has_degree = self.degree is not None
        wants_degree = self.kind == KIND_EMBEDDABLE and self.certified
        if has_degree != wants_degree:
            raise DomainError(
                "degree must be present exactly for certified Embeddable certificates"
            )

    @property
    def certified(self) -> bool:
        return self.status == STATUS_CERTIFIED


@dataclass(frozen=True)
class ShearingMap:
    """f(z1, z2) = (z1 + g(z2), z2) for a normalized disk function g."""

    g: DiskFunction

    @property
    def label(self) -> str:
        return self.g.label

    def eval(self, point) -> tuple[complex, complex]:
        """Evaluate at a point of the open unit ball."""
        p = as_ball_point(point)
        return (p.z1 + self.g.eval(p.z2), p.z2)

    def inverse(self, image) -> tuple[complex, complex]:
        """Exact inverse (w1 - g(w2), w2); requires |w2| < 1 only."""
        w1, w2 = image
        w1 = require_finite_complex(w1, "w1")
        return (w1 - self.g.eval(w2), complex(w2))

    def _series(self, op: str) -> CoefficientSeries:
        if self.g.coefficients is None:
            raise UnsupportedRepresentationError(
                f"{op} needs coefficient access, but {self.g.label or 'this map'} "
                f"is a closed-form function without coefficients"
            )
        return self.g.coefficients

    def truncated(self, m: int) -> "ShearingMap":
        """The polynomial shear built from coefficients a_2..a_m (tail dropped)."""
        s = self._series("truncation")
        if m < 1:
            raise DomainError(f"truncation degree must be >= 1, got {m}")
        head = s.coeffs[: max(0, m - s.start + 1)]
        label = f"{self.g.label}|trunc{m}" if self.g.label else f"trunc{m}"
        return shear_from_series(CoefficientSeries(head, 0.0), label=label)

    def tail_map(self, n: int) -> "ShearingMap":
        """The shear carrying coefficients a_k for k > n (zeros below), i.e.
        the composition (truncated(n))^-1 after the full map."""
        s = self._series("tail extraction")
        if n < 1:
            raise DomainError(f"tail degree must be >= 1, got {n}")
        zeros = (0.0j,) * max(0, min(n, s.max_index) - s.start + 1)
        tail = zeros + s.coeffs[len(zeros):]
        label = f"{self.g.label}|tail{n}" if self.g.label else f"tail{n}"
        return shear_from_series(CoefficientSeries(tail, s.tail_bound), label=label)


def shear_from_series(series: CoefficientSeries, label: str = "") -> ShearingMap:
    return ShearingMap(disk_function_from_series(series, label=label))


def embed_certificate(f: ShearingMap, n_max: int = DEFAULT_N_MAX) -> Certificate:
    """The smallest N in 1..n_max with tail_sum(N) <= 1.  Past the largest
    stored index M, tail_sum(N) is the declared tail bound alone, so only
    N <= min(n_max, M) is searched.  tail_sum never increases with N (its
    terms are nonnegative and fsum is correctly rounded), so the search
    bisects: about log2(M) calls of tail_sum instead of M."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    series = f.g.coefficients
    if series is None:
        return Certificate(KIND_EMBEDDABLE, STATUS_NOT_CERTIFIED, margin=-math.inf)
    hi = min(n_max, series.max_index)
    best = tail_sum(series, hi)
    if best > 1.0:
        margin = 1.0 - best if math.isfinite(best) else -math.inf
        return Certificate(KIND_EMBEDDABLE, STATUS_NOT_CERTIFIED, margin=margin)
    lo = 0  # invariant: tail_sum(N) > 1 for N <= lo, and tail_sum(hi) = best <= 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        value = tail_sum(series, mid)
        if value <= 1.0:
            hi, best = mid, value
        else:
            lo = mid
    return Certificate(
        KIND_EMBEDDABLE, STATUS_CERTIFIED, margin=1.0 - best, degree=hi, s0_member=True
    )


def starlike_certificate(f: ShearingMap) -> Certificate:
    """Inclusive test of sum_k (k-1)|a_k| <= 3*sqrt(3)/2; certified maps are
    starlike, hence normal-chain embeddable (s0_member)."""
    series = f.g.coefficients
    if series is None:
        return Certificate(KIND_STARLIKE, STATUS_NOT_CERTIFIED, margin=-math.inf)
    s2 = coeff_sum_s2(series)
    margin = STARLIKE_SUM_LIMIT - s2
    if s2 <= STARLIKE_SUM_LIMIT:
        return Certificate(KIND_STARLIKE, STATUS_CERTIFIED, margin=margin, s0_member=True)
    return Certificate(KIND_STARLIKE, STATUS_NOT_CERTIFIED, margin=margin)


def starshapelike_certificate(f: ShearingMap) -> Certificate:
    """Certified exactly when sum_k k|a_k| is finite, that is when the
    declared tail bound is not inf: the stored coefficients are finite, so
    their sum is.  The margin is S1 (coeff_sum_s1), inf also for a
    certified map whose finite S1 lies past double range, so the status,
    not the margin, carries finiteness."""
    series = f.g.coefficients
    if series is None:
        return Certificate(KIND_STARSHAPELIKE, STATUS_NOT_CERTIFIED, margin=math.inf)
    status = STATUS_NOT_CERTIFIED if series.tail_bound == math.inf else STATUS_CERTIFIED
    return Certificate(KIND_STARSHAPELIKE, status, margin=coeff_sum_s1(series))


def all_certificates(
    f: ShearingMap, n_max: int = DEFAULT_N_MAX
) -> tuple[Certificate, Certificate, Certificate]:
    return (
        starlike_certificate(f),
        starshapelike_certificate(f),
        embed_certificate(f, n_max=n_max),
    )
