"""Sampled verification of the geometric inequalities behind the certificates.

starlike_quantity evaluates Re<[df(z)]^-1 f(z), z>, which for a shearing map
collapses to the closed form

    |z|^2 + Re((g(z2) - z2 g'(z2)) * conj(z1)),

nonnegative on the punctured ball exactly when the map is starlike.
eq1_residual evaluates the slack of the necessary inequality

    |z1 + g(z2) - (1/a) g(a z2)|^2 + |z2|^2 < 1/a^2,   a in (0, 1],

which every starlike shearing map satisfies (at a = 1 the residual is
exactly 1 - |z|^2).

The scans sample sphere-stratified structured grids (radius s, split
|z2|^2 = t s^2, phase of z2), plus seeded random points and user probes
(each evaluated both as given and with z1 realigned).  Both quantities
depend on z1 only through |z1| and its phase against one complex number
per point, so a realigned z1 is exact: z1 = -|z1| w/|w| with
w = g(z2) - z2 g'(z2) for the starlike quantity, and z1 = +|z1| c/|c| with
c = g(z2) - g(a z2)/a for eq1 (|z1| itself where that number is 0).  What
the sampler's numbers and a series' coefficients fix is cached, read-only
(_plan, _Plan.table, _majorant_table); nothing that a kernel of g computes
is.  The scans run on one thread; their `workers` argument is accepted for
compatibility and has no effect.

The kernels see each distinct z2 of the plan at most once (both copies of
a random point or probe share it): g(z2), g'(z2) and, for eq1, g(a z2) at
every alpha < 1 are evaluated as arrays, and only the arithmetic that
involves z1 runs per sample.  Every kernel call on a plan's points goes
through _by_rows, in blocks of fewer than 2^13 points (2^17 bytes of
complex), so that no value depends on how many points share a call, and a
report does not depend on the plan's size or on a trace.  A screen (_screen)
first picks the samples that can reach the minimum: one keep rule (_keep)
applied to bounds on the number the scan computes at each point, w or c
per alpha, from the sources that derive them (_majorant, _log_bounds, and
_radial_bounds for a coarse per-circle stage of either scan; the starlike
scan's refused circles are evaluated first).  The scan evaluates that
sub-plan (_subplan) on its one path, and reports what the full plan
reports, byte for byte; an eq1 row that keeps no sample is +inf and calls
no kernel.

Values whose log-magnitudes exceed a screening limit are not trusted in
double precision.  The starlike scan excludes those samples (counted as
`refused`), while the eq1 scan certifies the residual sign in
log-magnitude arithmetic when one term dominates (reported as a -inf
residual) and refuses otherwise.  Within the limit the eq1 scan's square
|z1 + c|^2 can still overflow; such a residual is -inf too, negative as
1/a^2 - inf, but certified by no log-magnitude test.

Both scans then share one path (_report): the starlike scan is the
one-row case of eq1's (alpha row x sample) layout.  It applies the
realignment rule above, picks the minimum with ties broken by
lexicographic witness key, so reports are reproducible byte for byte,
re-evaluates a finite minimum exactly at its witness, writes the trace and
builds the report.  The witness z1 and the keys are built for the tied
minima only (for every sample only when a trace is written).  A scan in
which every sample whose value depends on g was refused is an error, and
so is an eq1 grid without an alpha below 1.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError, OverflowRefusalError
from .series import (LOG_KERNEL_ETA, LOG_KERNEL_RADIUS, BallPoint, CoefficientSeries,
                     DiskFunction, as_ball_point, require_point_count)
from .shear import ShearingMap

DEFAULT_SEED = 1729

# A minimum below this is a violation; anything closer to zero is rounding.
VIOLATION_THRESHOLD = -1e-12

# Samples with log-magnitudes beyond this are not evaluated plainly; the
# headroom below the 700 evaluation-refusal limit keeps the values a scan
# evaluates, and their sums and products with |z1| and z2, finite in
# doubles.  eq1's square |z1 + c|^2 can still overflow (|c| up to about
# e^600); 1/a^2 - inf is then -inf, a negative residual, certified by no
# log-magnitude test.
SCAN_LOG_LIMIT = 600.0

# Log-domain sign certification requires this many nats of domination.
_LOG_DOMINANCE_MARGIN = 30.0

# Extremal split |z2|^2 / s^2 for monomial shears; always kept in the t-grid.
_EXTREMAL_SPLIT = 2.0 / 3.0

# The screen's majorant table holds the moduli j / _NODES, j = 0.._NODES; a
# power of two, so every node and every point's node index is exact.
_NODES = 64

# Relative room for the rounding of a sample's own arithmetic and of its
# bound (_lower): 2^-44 is 512 units of roundoff, against fewer than 30
# that the few operations of a sample take.
_ROUND = 2.0**-44

# e^(-4 eta): turns e^(x + 2 eta) into e^(x - 2 eta) (see _log_bounds).
_SHRINK = math.exp(-4.0 * LOG_KERNEL_ETA)


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan for ball scans."""

    radius: float = 0.99
    n_radial: int = 24
    n_split: int = 25
    n_phase: int = 8
    n_random: int = 5000
    seed: int = DEFAULT_SEED
    probes: tuple[BallPoint, ...] = ()

    def __post_init__(self):
        r = float(self.radius)
        if not (0.0 < r < 1.0):
            raise ConfigError(f"radius must lie in (0, 1), got {r!r}")
        object.__setattr__(self, "radius", r)
        for name, least in (("n_radial", 1), ("n_split", 1), ("n_phase", 1),
                            ("n_random", 0), ("seed", 0)):
            if int(getattr(self, name)) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "probes", tuple(as_ball_point(p) for p in self.probes))
        # the split grid holds at most n_split + 1 values (see _split_grid)
        others = self.n_random + len(self.probes)
        require_point_count(
            self.n_radial * (self.n_split + 1) * self.n_phase + 2 * others,
            f"sampling plan of up to {self.n_radial} x ({self.n_split} + 1) x {self.n_phase} "
            f"structured and 2 x {others} other samples",
        )

    @property
    def sample_count(self) -> int:
        structured = self.n_radial * len(_split_grid(self.n_split)) * self.n_phase
        return structured + 2 * self.n_random + 2 * len(self.probes)


@dataclass(frozen=True)
class ScanReport:
    """Result of a sampled scan: the extremum, a witness that reproduces it,
    and enough configuration to regenerate the scan byte-for-byte.  config
    holds that configuration as (key, value) string pairs, the report's
    `# key=value` header rows; a value is kept verbatim, whatever characters
    it holds.  config_digest joins the pairs as key=value;key=value, the
    first line of a trace."""

    kind: str
    extremum: float
    witness: BallPoint
    samples: int
    refused: int
    violation: bool
    threshold: float
    config: tuple[tuple[str, str], ...]
    alpha: float | None = None

    @property
    def config_digest(self) -> str:
        return ";".join(f"{k}={v}" for k, v in self.config)


def starlike_quantity(f: ShearingMap, point) -> float:
    """Re<[df(z)]^-1 f(z), z> via the shear closed form."""
    p = as_ball_point(point)
    g = f.g.eval(p.z2)
    dg = f.g.deriv(p.z2)
    w = g - p.z2 * dg
    return p.norm_sq + (w * p.z1.conjugate()).real


def _check_alpha(alpha) -> float:
    """alpha as a float in (0, 1] with 1/alpha^2 a finite double, that is
    alpha above about 7.46e-155; below it the residual's 1/alpha^2 term
    overflows to inf or divides by an underflowed alpha^2 = 0."""
    a = float(alpha)
    if not (0.0 < a <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    if a * a == 0.0 or not math.isfinite(1.0 / (a * a)):
        raise DomainError(f"1/alpha^2 is not a finite double for alpha = {alpha!r}")
    return a


def eq1_residual(f: ShearingMap, alpha: float, point) -> float:
    """1/a^2 - (|z1 + g(z2) - (1/a) g(a z2)|^2 + |z2|^2); at a = 1 this is
    exactly 1 - |z|^2."""
    a = _check_alpha(alpha)
    p = as_ball_point(point)
    if a == 1.0:
        return 1.0 - p.norm_sq
    c = f.g.eval(p.z2) - f.g.eval(a * p.z2) / a
    try:
        m2 = abs(p.z1 + c) ** 2
    except OverflowError:  # ** raises past double range; x * x would round differently
        m2 = math.inf
    if not math.isfinite(m2):
        raise OverflowRefusalError(
            "|z1 + g(z2) - g(a z2)/a|^2 overflows double range, so the residual is "
            "negative; the scans report such a sample as -inf"
        )
    return 1.0 / (a * a) - (m2 + abs(p.z2) ** 2)


# ---------------------------------------------------------------------------
# sample construction


@functools.lru_cache(maxsize=4)
def _split_grid(n_split: int) -> np.ndarray:
    """The split values |z2|^2 / s^2, read-only: n_split evenly spaced ones
    and _EXTREMAL_SPLIT."""
    grid = np.unique(np.append(np.linspace(0.0, 1.0, n_split), _EXTREMAL_SPLIT))
    grid.flags.writeable = False
    return grid


class _Samples(NamedTuple):
    points: np.ndarray  # complex: each distinct z2 of the plan once
    src: np.ndarray     # each sample's index into points
    r1: np.ndarray      # |z1|
    phi1: np.ndarray    # phase of z1; NaN means adversarially aligned


class _PerPoint(NamedTuple):
    """What a plan's samples fix at each of its points, the numbers the
    screen reads: one entry per point (_Plan.table)."""

    points: np.ndarray   # z2
    modulus: np.ndarray  # |z2|
    r1: np.ndarray       # |z1|, shared by the samples at the point
    a2sq: np.ndarray     # |z2|^2
    q: np.ndarray        # |z|^2 = |z1|^2 + |z2|^2
    qmax: float          # the largest q
    node: np.ndarray     # the node index (_node)
    samples: np.ndarray  # (points x 2) its sample indices, one twice for a point with one

    def take(self, idx) -> "_PerPoint":
        """The entries of the points idx (indices, ascending)."""
        q = self.q[idx]
        return _PerPoint(self.points[idx], self.modulus[idx], self.r1[idx], self.a2sq[idx],
                         q, q.max(), self.node[idx], self.samples[idx])


class _Plan(_Samples):
    """A sampling plan with its per-point table, built on first read and
    then kept with the plan: for the probe-free plan that _plan caches,
    under _plan's key; for a plan with probes, with every plan."""

    @functools.cached_property
    def table(self) -> _PerPoint:
        """The per-point table, read-only.  Every point has one sample
        (structured) or two (_add_twice), with one |z1|."""
        modulus = np.abs(self.points)
        r1 = np.empty(self.points.size)
        r1[self.src] = self.r1
        a2sq = modulus * modulus
        q = r1 * r1 + a2sq
        count = np.bincount(self.src, minlength=self.points.size)
        first = np.cumsum(count) - count
        order = np.argsort(self.src, kind="stable")
        samples = np.column_stack([order[first], order[first + count - 1]])
        table = _PerPoint(self.points, modulus, r1, a2sq, q, q.max(), _node(modulus), samples)
        for a in table:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return table


def _add_twice(base: _Samples, z2, z1_abs, z1_phase) -> _Samples:
    """base plus the points z2, each sampled twice: with z1 as given
    (modulus z1_abs, phase z1_phase) and with z1 realigned."""
    idx = np.arange(base.points.size, base.points.size + z2.size)
    return _Samples(
        points=np.concatenate([base.points, z2]), src=np.concatenate([base.src, idx, idx]),
        r1=np.concatenate([base.r1, z1_abs, z1_abs]),
        phi1=np.concatenate([base.phi1, z1_phase, np.full(z2.size, np.nan)]),
    )


@functools.lru_cache(maxsize=4)
def _plan(radius, n_radial, n_split, n_phase, n_random, seed) -> _Plan:
    """The structured grid and the random points, read-only, with their
    per-point table once a screen read it.  Keyed on the numbers alone:
    probes stay out, because BallPoint(0, -0.0) equals and hashes like
    BallPoint(0, 0.0), and a cached probe would change a signed zero in a
    later report."""
    s_grid = np.linspace(radius / n_radial, radius, n_radial)
    t_grid = _split_grid(n_split)
    p_grid = np.arange(n_phase) * (2.0 * math.pi / n_phase)
    s, t, phi2 = (a.ravel() for a in np.meshgrid(s_grid, t_grid, p_grid, indexing="ij"))
    plan = _Samples(
        points=s * np.sqrt(t) * np.exp(1j * phi2), src=np.arange(s.size),
        r1=s * np.sqrt(1.0 - t), phi1=np.full(s.size, np.nan),
    )
    if n_random:
        rng = np.random.default_rng(seed)
        rs = radius * rng.random(n_random) ** 0.25
        rt = rng.random(n_random)
        rp1 = 2.0 * math.pi * rng.random(n_random)
        rp2 = 2.0 * math.pi * rng.random(n_random)
        plan = _add_twice(plan, rs * np.sqrt(rt) * np.exp(1j * rp2), rs * np.sqrt(1.0 - rt), rp1)
    for a in plan:
        a.flags.writeable = False
    return _Plan(*plan)


def _build_samples(cfg: SamplerConfig) -> _Plan:
    plan = _plan(cfg.radius, cfg.n_radial, cfg.n_split, cfg.n_phase, cfg.n_random, cfg.seed)
    if not cfg.probes:
        return plan
    pz1 = np.asarray([p.z1 for p in cfg.probes], dtype=complex)
    pz2 = np.asarray([p.z2 for p in cfg.probes], dtype=complex)
    return _Plan(*_add_twice(plan, pz2, np.abs(pz1), np.angle(pz1)))


# ---------------------------------------------------------------------------
# screen: which samples can reach the minimum


class _Bounds(NamedTuple):
    """Bounds L <= |q| <= U on the number q a scan computes at each point,
    one row per row of the scan whose values depend on g: q = w = g - z2 g'
    (the starlike scan's one row) or q = c = g(z2) - g(a z2)/a (eq1, one
    row per alpha below 1; at alpha = 1, c = 0 and the rule needs no
    bound).  upper[i, column] and lower[i, column] hold row i at every
    point (column maps points to the columns: nodes, or slice(None) for one
    column per point).  A refused sample has upper inf and lower NaN, a
    certified one (eq1) upper and lower inf."""

    upper: np.ndarray
    lower: np.ndarray
    column: np.ndarray | slice


def _node(modulus: np.ndarray) -> np.ndarray:
    """Each point's node index j, from its computed modulus |z2|: the least
    with t_j = j / _NODES >= |z2| (1 + 2^-48), which covers the rounding of
    |z2| and of a*z2, so that |fl(a z2)| <= a t_j for every a <= 1."""
    return np.ceil(modulus * (_NODES * (1.0 + 2.0**-48))).astype(np.intp)


def _majorant(series: CoefficientSeries, node: np.ndarray, below) -> _Bounds | None:
    """Bounds from the coefficients at points of node indices node (_node),
    with lower 0 and one column per node, or None when a point lies within
    about 2^-48 of the unit circle and when sum_k k|a_k| exceeds
    e^SCAN_LOG_LIMIT / 2.  A point's column is its node index; the table
    (_majorant_table) ends at the largest node a point reads."""
    top = node.max()
    if top > _NODES:
        return None
    table = _majorant_table(series, None if below is None else tuple(below))
    if table is None:
        return None
    upper = table[:, :top + 1]
    return _Bounds(upper, np.zeros(upper.shape), node)


@functools.lru_cache(maxsize=8)
def _majorant_table(series: CoefficientSeries, below) -> np.ndarray | None:
    """_majorant's table at every node, read-only, or None when
    sum_k k|a_k| exceeds e^SCAN_LOG_LIMIT / 2.  It depends on |a_k| and the
    alphas in below alone, so it is cached under the series and below; two
    equal series differ at most in signed zeros, which |a_k| erases.
    Row i holds, at each node, an upper bound on |q_i| as the scans compute
    it at every point of that node, for q_i = sum_k w_k a_k z2^k: w
    (below None, weights w_k = k - 1) and c (weights 1 - a^(k-1), one row
    per alpha a in below), each formed from eval_raw and deriv_raw.

    With T_w(t) = sum_k w_k |a_k| t^k, u = 2^-53 and n stored coefficients,
    each bound is T_w(t_j) + 64 u (n + 8) T_k(t_j) + 2^-998 T_k(1) + 2^-900.
    The second term covers every rounding between the exact q and its
    computed value, derived as growth._screen_slack derives its own, where
    Horner is within 8 n u of the absolute-value majorant:
      * Horner: g(z2) and z2 g'(z2) are each within 8 (n + 2) u T_k of the
        exact values, and so is g(a z2)/a, as |a z2|^k / a <= t^k.
      * Points and per-point arithmetic: fl(a z2) is within u a |z2| of
        a z2, which moves g(a z2)/a by at most u T_k at the node.  The
        product z2 g', the quotient by a, the subtraction, the rounded
        weights (1 - a^(k-1) within 2u) and k a_k add at most 10 u T_k.
      * The table: each power t^k is a chain of k - 1 products, and the
        sum over k of its nonnegative terms is within (3n + 8) u of T_w.
    The total, below (19 n + 60) u T_k, leaves a factor 3 to spare.
    Powers below 2^-1000 are flushed to 0 before they reach the subnormal
    range; the terms they drop sum to at most 2^-998 T_k(1).  Any other
    operation in the subnormal range errs by at most 2^-1074, and fewer than
    2^100 reach one point, so 2^-900 covers them.  The sum_k k|a_k| limit
    keeps every Horner intermediate (at most sum_k |a_k| or sum_k k|a_k| on
    the closed disk) and every value finite, which the bounds above
    assume, and gives log|g| <= SCAN_LOG_LIMIT at every point, so no sample
    is refused.  eval_raw and deriv_raw must evaluate `coefficients` by
    Horner, as disk_function_from_series builds them."""
    a = np.abs(np.asarray(series.coeffs, dtype=complex))
    k = np.arange(2.0, a.size + 2.0)
    weights = (k - 1.0)[None] if below is None else 1.0 - np.asarray(below)[:, None] ** (k - 1.0)
    terms = np.vstack([weights, k]) * a
    t = np.arange(_NODES + 1) / _NODES
    table = np.zeros((terms.shape[0], t.size))
    power = t  # t^(start + 1)
    # _NODES powers per block: memory stays at _NODES^2 numbers for any
    # degree, and einsum keeps the sums off BLAS
    for start in range(0, a.size, _NODES):
        steps = np.broadcast_to(t, (min(_NODES, a.size - start), t.size))
        block = power * np.cumprod(steps, axis=0)  # t^(start + 2) on
        power = block[-1]
        block[block < 2.0**-1000] = 0.0
        table += np.einsum("rk,kn->rn", terms[:, start:start + _NODES], block)
    if not table[-1, -1] <= math.exp(SCAN_LOG_LIMIT) / 2.0:
        return None
    slack = (64.0 * 2.0**-53 * (a.size + 8)) * table[-1] + (2.0**-998 * table[-1, -1] + 2.0**-900)
    upper = table[:-1] + slack
    upper.flags.writeable = False
    return upper


def _eq1_status(la2, laa):
    """(ok, certified) of the eq1 samples at points with log|g(z2)| = la2
    and log|g(a z2)/a| = laa: ok where both lie within SCAN_LOG_LIMIT;
    otherwise certified (residual -inf) where one dominates the other by
    _LOG_DOMINANCE_MARGIN, and refused where neither does."""
    ok = (la2 <= SCAN_LOG_LIMIT) & (laa <= SCAN_LOG_LIMIT)
    certified = ~ok
    if certified.any():
        certified &= np.maximum(la2, laa) - np.minimum(la2, laa) > _LOG_DOMINANCE_MARGIN
    return ok, certified


def _two_term(ex, ey, ey_low, s, ok, certified=False):
    """(U, L) for a computed |q| = |X - Y|, given ex = e^(x + 2 eta) from a
    log kernel's x for |X| and bounds ey >= |Y| >= ey_low:

        U = ex + ey + s,   L = max(ex e^(-4 eta) - ey, ey_low - ex) - s,  at least 0.

    A sample is refused (U inf, L NaN) where not ok, and certified (U and L
    inf) where certified.  _log_bounds derives the two etas and s."""
    upper = ex + ey + s
    lower = np.maximum(np.maximum(ex * _SHRINK - ey, ey_low - ex) - s, 0.0)
    if not ok.all():
        upper[~ok] = math.inf
        lower = np.where(ok, lower, np.where(certified, math.inf, math.nan))
    return upper, lower


def _logs(alphas) -> np.ndarray:
    """log a per alpha as a column, each from math.log, as for a scalar."""
    return np.asarray([math.log(a) for a in alphas])[:, None]


def _by_rows(kernels, pts, a=None) -> list:
    """The tuple kernels(z) at z = z2, as arrays of points (a None; z2
    itself, unmultiplied), or at z = a z2 for each alpha of the column a,
    as arrays of rows x points.  kernels takes a flat array, once per block
    below 2^17 bytes of complex: a group of whole rows, or a slice of a
    larger row.  From 2^18 bytes on numpy evaluates temporaries in place and
    may swap a complex product's operands, which rounds it differently, so
    a point's bits would depend on how many points share a call.  Below
    2^17 bytes a block's temporaries also stay under the C library's default
    mmap threshold (128 KiB) and reuse heap memory instead of fresh pages.
    Every kernel of g that the scans run on a plan's points runs here."""
    n, rows, block = pts.size, 1 if a is None else a.shape[0], (2**17 - 1) // 16
    width = min(max(n, 1), block)  # points per call
    step = block // width  # rows per call
    parts = []
    for i in range(0, rows, step):
        for j in range(0, max(n, 1), width):
            z = pts[j:j + width] if a is None else a[i:i + step] * pts[j:j + width]
            parts.append(kernels(z.ravel()))
    shape = pts.shape if a is None else (rows, n)
    if len(parts) == 1:  # no copy
        return [np.asarray(v).reshape(shape) for v in parts[0]]
    return [np.concatenate(v).reshape(shape) for v in zip(*parts)]


def _floats(*kernels):
    """A kernels argument for _by_rows: the values of each as floats."""
    return lambda z: [np.asarray(k(z), dtype=float) for k in kernels]


def _log_bounds(g: DiskFunction, pts: np.ndarray, modulus, below) -> _Bounds | None:
    """Bounds from a closed form's log kernels at pts, of moduli modulus at
    most LOG_KERNEL_RADIUS, one column per point, or None without
    log_abs_raw (for the starlike scan, below None, also
    deriv_log_abs_raw).  The scans form q = X - Y from two computed terms,
    X = g and Y = z2 g' for w, X = g(z2) and Y = g(a z2)/a for c, and the
    kernels give x and y with |X| and |Y| within LOG_KERNEL_ETA nats of e^x
    and e^y, up to 2^-1000 absolute (see DiskFunction), wherever x and y
    are at most SCAN_LOG_LIMIT; elsewhere the scans refuse or certify the
    sample (_eq1_status), and so does the screen.  Then, with e = 2 eta,
    _two_term gives

        |q| <= e^(x+e) + e^(y+e) + s,
        |q| >= max(e^(x-e) - e^(y+e), e^(y-e) - e^(x+e)) - s,  and >= 0,

    for s = 2^-998 (eq1: 2^-998 / a).  The second eta covers the rounding of
    everything between the kernels' values and the computed |q|: that of
    z2 g', of the quotient by a, of the subtraction, of |.|, of log a and
    of the bounds themselves, a few units of 2^-53 relative each, and in
    the exponents at most 2^-40 nats for the logs that give a value above
    the subnormal range.  s covers the kernels' 2^-1000 (divided by a for
    g(a z2)/a) and the few roundings in the subnormal range."""
    if g.log_abs_raw is None or (below is None and g.deriv_log_abs_raw is None):
        return None
    if below is None:
        la, lda = _by_rows(_floats(g.log_abs_raw, g.deriv_log_abs_raw), pts)
        ey = modulus * np.exp(lda + 2.0 * LOG_KERNEL_ETA)
        s, status = 2.0**-998, ((la <= SCAN_LOG_LIMIT) & (lda <= SCAN_LOG_LIMIT),)
    else:
        a = np.asarray(below)[:, None]
        (la,) = _by_rows(_floats(g.log_abs_raw), pts)
        (laa,) = _by_rows(_floats(g.log_abs_raw), pts, a)
        laa = laa - _logs(below)
        ey = np.exp(laa + 2.0 * LOG_KERNEL_ETA)
        s, status = 2.0**-998 / a, _eq1_status(la, laa)
    upper, lower = _two_term(np.exp(la + 2.0 * LOG_KERNEL_ETA), ey, ey * _SHRINK, s, *status)
    return _Bounds(np.atleast_2d(upper), np.atleast_2d(lower), slice(None))


def _radial_bounds(g: DiskFunction, pts, node, below) -> _Bounds | None:
    """Coarse bounds, one row, for the starlike scan's row (below None) or
    the eq1 rows of the alphas in below (all < 1) of a closed form, or None
    without log_max_abs (starlike: deriv_log_max_abs): at every point (of
    modulus at most LOG_KERNEL_RADIUS, with node indices node), U at least
    and L at most what _log_bounds gives in each of those rows, from
    radial bounds at t_j = min(j / _NODES, LOG_KERNEL_RADIUS) >= |z2|.

    The starlike row is one column per node, with M_j = log_max_abs(t_j)
    and D_j = deriv_log_max_abs(t_j) above the kernels' x and y at every
    point of node j:

        U_j = e^(M_j + 2 eta) + t_j e^(D_j + 2 eta) + 2^-998,   L = 0,

    above _log_bounds' U term by term, as exp, products and sums round
    monotonically.  For eq1, one kernel pass gives x = log_abs_raw(z2), and
    a table over the nodes bounds log|g(a z2)/a| for every alpha at once,

        Ybar_j = max over a of fl(log_max_abs(t') - log a) + 2^-40,
        t' = min(a t_j rounded up, LOG_KERNEL_RADIUS),

    above the scan's computed log_abs_raw(a z2) - log a at every point of
    node j: |fl(a z2)| <= t', the subtraction rounds monotonically, and
    2^-40 nats cover the rounding of exp.  _two_term takes Ybar for y, no
    lower bound on |Y|, and s = 2^-998 / (least alpha).  A point is refused
    where M_j or D_j (eq1: x or Ybar) exceeds SCAN_LOG_LIMIT, so wherever
    _log_bounds refuses or certifies it in some row."""
    if g.log_max_abs is None or (below is None and g.deriv_log_max_abs is None):
        return None
    t = np.minimum(np.arange(node.max() + 1) / _NODES, LOG_KERNEL_RADIUS)
    if below is None:
        m, d = (np.asarray(b(t), dtype=float) for b in (g.log_max_abs, g.deriv_log_max_abs))
        ok = (m <= SCAN_LOG_LIMIT) & (d <= SCAN_LOG_LIMIT)
        upper = np.exp(m + 2.0 * LOG_KERNEL_ETA) + t * np.exp(d + 2.0 * LOG_KERNEL_ETA) + 2.0**-998
        upper[~ok] = math.inf
        return _Bounds(upper[None], np.where(ok, 0.0, math.nan)[None], node)
    a = np.asarray(below)[:, None]
    tmax = np.minimum(np.nextafter(a * t, math.inf), LOG_KERNEL_RADIUS)
    ybar = (np.asarray(g.log_max_abs(tmax), dtype=float) - _logs(below)).max(axis=0) + 2.0**-40
    (x,) = _by_rows(_floats(g.log_abs_raw), pts)
    ok = (x <= SCAN_LOG_LIMIT) & (ybar <= SCAN_LOG_LIMIT)[node]
    upper, lower = _two_term(np.exp(x + 2.0 * LOG_KERNEL_ETA),
                             np.exp(ybar + 2.0 * LOG_KERNEL_ETA)[node], 0.0,
                             2.0**-998 / min(below), ok)
    return _Bounds(upper[None], lower[None], slice(None))


def _lower(x, y):
    """A lower bound on a sample's computed value when, in exact
    arithmetic, it is at least x - y for x, y >= 0 that bound its terms:
    _ROUND covers the relative rounding of the few operations a sample
    takes (and of this bound), 2^-1000 their errors in the subnormal range."""
    return (1.0 - _ROUND) * x - (1.0 + _ROUND) * y - 2.0**-1000


def _keep(b: _Bounds, below, one: bool, p: _PerPoint, seed: float = math.inf):
    """(keep, live, least): the keep rule on the points of p that b bounds,
    for the rows of b: the starlike scan's one (below None) or the eq1 rows
    of the alphas in below, all < 1, with the row alpha = 1 too where one.
    keep is a mask over the points, live one flag per row of b: whether it
    keeps a point, and least the least below, taken no larger than seed.

    At a realigned sample a row's computed value is x - y(|z1|, |z2|^2, |q|),
    with x, y >= 0 and y increasing in |z1| and |q|: x = |z|^2 and
    y = |z1| |w| (starlike), x = 1/a^2 and y = (|z1| + |c|)^2 + |z2|^2
    (eq1); a z1 as given makes it no smaller.  With L <= |q| <= U
    (_Bounds), each sample's computed value is at least _lower(x, y(U)),
    and a realigned one's at most the computed x - y(L), since rounding is
    monotone.  All samples at a point share |z1| (one structured sample, or
    the two copies _add_twice makes) and every point has a realigned
    sample, so the least of those upper bounds over the rows and the
    samples not refused is attained, also when it overflows to -inf; a
    certified sample (-inf) makes it -inf.  The rule keeps the points where
    some row's lower bound is at most that least, so every possible minimum
    and tie; every refused sample; and, when a row refuses one, the first
    point z2 != 0 that some row does not refuse, so that _report decides
    whether every sample whose value depends on g was refused as on all
    the points.  A row is first tested as a whole, at y(max |z|, 0, max U),
    which bounds y at every point.  At alpha = 1, c = 0 and x - y(0) is
    exact."""
    upper, lower, column = b
    r1, a2sq, q, qmax = p.r1, p.a2sq, p.q, p.qmax
    # per row x and its least, then y(0)'s largest
    xs, y0max = (([(q, q.min())], 0.0) if below is None
                 else ([(1.0 / (a * a),) * 2 for a in below], qmax))

    def y(r, s, m):
        return r * m if below is None else (r + m) ** 2 + s

    # where L = 0 at every point, x or y(0) is the same at every point, so
    # x - y(0) is least where x is least and y(0) largest; min keeps the
    # least against a NaN (refused)
    nonzero = lower.any(axis=1).tolist()
    least = min(seed, 1.0 - qmax) if one else seed  # alpha = 1: 1 - |z|^2, exact
    for (x, xmin), low, nz in zip(xs, lower, nonzero):
        least = min(least, np.fmin.reduce(x - y(r1, a2sq, low[column])) if nz else xmin - y0max)
    zmax = math.sqrt(qmax) * (1.0 + _ROUND)  # at least |z| at every point
    keep = ~(1.0 - q > least) if one else np.zeros(q.size, dtype=bool)
    live = [False] * len(xs)
    for i, ((x, xmin), umax) in enumerate(zip(xs, upper.max(axis=1))):
        if not _lower(xmin, y(zmax, 0.0, umax)) > least:
            row = ~(_lower(x, y(r1, a2sq, upper[i, column])) > least)
            live[i] = bool(row.any())
            keep |= row
    if any(nonzero) and np.isnan(lower).any():  # a row refuses a sample
        usable = ~np.isnan(lower).all(axis=0)[column]
        keep[np.flatnonzero(usable & (p.points != 0.0))[:1]] = True
    return keep, live, least


def _subplan(plan: _Plan, kept) -> _Samples:
    """The samples at the points kept (indices into plan's points,
    ascending), in plan order, with each of those points once, also in plan
    order; its cost grows with the kept points alone."""
    at = np.unique(plan.table.samples[kept])
    return _Samples(points=plan.points[kept], src=np.searchsorted(kept, plan.src[at]),
                    r1=plan.r1[at], phi1=plan.phi1[at])


def _two_stage(g: DiskFunction, p: _PerPoint, below, one: bool, coarse: _Bounds):
    """(cand, b): the candidates, indices into p's points, that _keep keeps
    on the coarse row, from the least among the points that the starlike
    row refuses (the seed), and _log_bounds at the candidates, computed
    once per point (see _screen).  eq1 takes no seed: on the default grid
    it prunes no point and costs a _keep over nine rows."""
    refused = np.isnan(coarse.lower[0, coarse.column]) & (below is None)
    seed = np.flatnonzero(refused)
    least, exact = math.inf, None
    if seed.size:
        exact = _log_bounds(g, p.points[seed], p.modulus[seed], below)
        least = _keep(exact, below, one, p.take(seed))[2]
    cand = np.flatnonzero(_keep(coarse, None if below is None else [max(below)], one, p, least)[0])
    fresh = ~refused[cand]  # every seed point is a candidate
    b = _log_bounds(g, p.points[cand[fresh]], p.modulus[cand[fresh]], below)
    if exact is not None:
        upper, lower = np.empty((2, b.upper.shape[0], cand.size))
        upper[:, fresh], lower[:, fresh] = b.upper, b.lower
        upper[:, ~fresh], lower[:, ~fresh] = exact.upper, exact.lower
        b = _Bounds(upper, lower, slice(None))
    return cand, b


def _screen(f: ShearingMap, plan: _Plan, avals, trace_path):
    """(samples, live): the sub-plan of the samples whose computed value
    can reach the minimum in some row (the starlike scan's one, avals None,
    or eq1's, one per alpha), in plan order, and per row whether it keeps a
    sample whose value depends on g.  _keep decides on bounds from
    _majorant for a map with coefficients, and from _log_bounds for a
    closed form whose points lie within LOG_KERNEL_RADIUS; a written trace,
    and a map that neither covers, get plan itself, every row live but
    alpha = 1.

    For a closed form with radial bounds, _keep runs in stages
    (_two_stage): for the starlike scan, on the points that the coarse row
    of _radial_bounds refuses, exactly, for a least (the seed) that a
    sample attains, so at least the full least, the one the exact stage
    finds on all points; from the seed on the coarse row (eq1: at the
    largest alpha below 1, where 1/a^2 is least) over every point; and on
    _log_bounds at the candidates it keeps.  The result is the exact
    stage's on all points.  A point that stage keeps has coarse lower bound
    <= exact lower bound <= full least, which lies below the seed and the
    coarse row's own least, so it is a candidate, as is the point that
    attains the full least.  Every refused point is a candidate, and a
    point that some row refuses or certifies is refused in the coarse row,
    so the points z2 != 0 up to the first one that some row does not refuse
    are candidates, the last as the coarse row's first usable point or as
    refused there."""
    alphas = (None,) if avals is None else avals
    depends = [a != 1.0 for a in alphas]
    if trace_path is not None:
        return plan, depends
    below = None if avals is None else [a for a in avals if a < 1.0]
    one = 1.0 in alphas
    p = plan.table
    cand, b = None, None
    if f.g.coefficients is not None:
        b = _majorant(f.g.coefficients, p.node, below)
    elif p.modulus.max() <= LOG_KERNEL_RADIUS:
        coarse = _radial_bounds(f.g, p.points, p.node, below)
        if coarse is None:
            b = _log_bounds(f.g, p.points, p.modulus, below)
        else:
            cand, b = _two_stage(f.g, p, below, one, coarse)
            p = p.take(cand)
    if b is None:
        return plan, depends
    keep, live, _ = _keep(b, below, one, p)
    kept = np.flatnonzero(keep) if cand is None else cand[keep]
    live = iter(live)
    return _subplan(plan, kept), [d and next(live) for d in depends]


# ---------------------------------------------------------------------------
# witness, trace and report, shared by both scans


def _report(
    f: ShearingMap, cfg: SamplerConfig, samples: _Samples, values: np.ndarray,
    c: np.ndarray, sign: int, ok: np.ndarray, certified: np.ndarray,
    alphas: tuple[float, ...] | None, trace_path,
) -> ScanReport:
    """Witness, trace and report of a scan with one row of sample values
    per alpha (the starlike scan: one row, alphas None) over cfg's plan or
    a sub-plan.  c, ok and certified hold per row and distinct z2 the
    number a realigned z1 follows, the screen, and the log-magnitude sign
    certificate.  A realigned z1 is sign |z1| c/|c|, or |z1| where c = 0 or
    the sample is certified.  Ties for the minimum go to the least key
    (z1, z2, alpha), then to the lowest index; NaN (refused) never wins.  A
    finite minimum is re-evaluated exactly at its witness."""
    pts, src, r1, phi1 = samples
    n, eq1 = src.size, alphas is not None
    kind = "eq1-scan" if eq1 else "starlike-scan"
    flat = values.ravel()
    refused = int(np.isnan(flat).sum())

    def z1_of(pairs):
        """z1 of the flat (row, sample) indices pairs; NaN when refused."""
        i, j = np.divmod(np.asarray(pairs), n)
        r, p = r1[j], src[j]
        cp, okp = c[i, p], ok[i, p]
        with np.errstate(all="ignore"):
            # dividing by |c| takes 1/|c|, which overflows for |c| below
            # about 2^-1024: realign along c 2^600 there, scaled exactly
            cp = np.where(1.0 / np.abs(cp) == math.inf, cp * 2.0**600, cp)
            absc = np.abs(cp)
            # (sign * r) first: r * (-c) can flip the sign of a zero part
            z1 = np.where(okp & (absc > 0.0), (sign * r) * cp / np.where(absc > 0.0, absc, 1.0), r)
            z1 = np.where(np.isnan(phi1[j]), z1, r * np.exp(1j * phi1[j]))
        return np.where(okp | certified[i, p], z1, complex(np.nan, np.nan))

    # a sample depends on g when z2 != 0 (eq1: and alpha < 1); every plan
    # has one, so only refusals leave none (a screen refuses nothing)
    depends_on_g = (pts != 0.0)[src]
    if eq1:
        depends_on_g = depends_on_g & (np.asarray(alphas)[:, None] < 1.0)
    if refused and not (~np.isnan(values) & depends_on_g).any():
        raise ConfigError("every sample whose value depends on g was refused; nothing to report")
    cand = np.flatnonzero(flat == np.fmin.reduce(flat))
    z1, z2 = z1_of(cand), pts[src[cand % n]]
    keys = np.column_stack([z1.real, z1.imag, z2.real, z2.imag]
                           + ([np.asarray(alphas)[cand // n]] if eq1 else []))
    k = np.lexsort(keys.T[::-1])[0]  # stable, and -0.0 ties with 0.0 as in a tuple
    best = int(cand[k])
    witness = BallPoint(complex(z1[k]), complex(z2[k]))
    alpha = alphas[best // n] if eq1 else None
    extremum = float(flat[best])
    if math.isfinite(extremum):
        extremum = eq1_residual(f, alpha, witness) if eq1 else starlike_quantity(f, witness)

    config = [("kind", kind), ("input", f.label or "shear"), ("radius", repr(cfg.radius)),
              ("s_grid", str(cfg.n_radial)), ("t_grid", str(cfg.n_split)),
              ("phase_grid", str(cfg.n_phase)), ("random", str(cfg.n_random)),
              ("seed", str(cfg.seed)), ("probes", str(len(cfg.probes)))]
    if eq1:
        config += [("label", "necessary-condition-check"),
                   ("alphas", f"{alphas[0]!r}:{alphas[-1]!r}:{len(alphas)}")]
    config += [("log_limit", repr(SCAN_LOG_LIMIT)), ("refused", str(refused))]
    report = ScanReport(kind=kind, extremum=extremum, witness=witness, samples=cfg.sample_count,
                        refused=refused, violation=extremum < VIOLATION_THRESHOLD,
                        threshold=VIOLATION_THRESHOLD, config=tuple(config), alpha=alpha)
    if trace_path is not None:
        z1, z2 = z1_of(np.arange(flat.size)), np.tile(pts[src], len(values))
        s = np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(s > 0.0, (np.abs(z2) / np.where(s > 0.0, s, 1.0)) ** 2, 0.0)
        columns = [s, t, np.angle(z1), np.angle(z2), flat]
        header = ["s", "t", "phase1", "phase2", "value"]
        if eq1:
            columns.insert(0, np.repeat(alphas, n))
            header.insert(0, "alpha")
        with open(trace_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# {report.config_digest}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([f"{x:.17g}" for x in row] for row in zip(*columns))
    return report


# ---------------------------------------------------------------------------
# starlike scan


def starlike_scan(
    f: ShearingMap,
    sampler: SamplerConfig | None = None,
    workers: int = 1,
    trace_path=None,
) -> ScanReport:
    """Minimum of starlike_quantity over the sampling plan.  Violation means
    a minimum below the -1e-12 threshold; a starlike map never produces one.
    workers is accepted for compatibility and has no effect."""
    cfg = sampler if sampler is not None else SamplerConfig()
    with np.errstate(all="ignore"):
        samples, _ = _screen(f, _build_samples(cfg), None, trace_path)
        pts, src, r1, phi1 = samples
        given = ~np.isnan(phi1)
        norm_sq = r1**2 + np.abs(pts[src]) ** 2

        def kernels(z):
            g = f.g.eval_raw(z)
            ok = f.g.log_abs_of(z, g) <= SCAN_LOG_LIMIT
            if f.g.deriv_log_abs_raw is not None:
                ok &= np.asarray(f.g.deriv_log_abs_raw(z), dtype=float) <= SCAN_LOG_LIMIT
            return g - z * f.g.deriv_raw(z), ok

        w, ok = _by_rows(kernels, pts)
        values = norm_sq - np.abs(w)[src] * r1
        z1_given = r1[given] * np.exp(1j * phi1[given])
        values[given] = norm_sq[given] + (w[src[given]] * np.conj(z1_given)).real
    values[~(ok[src] & np.isfinite(values))] = np.nan
    # the minimizing z1 on the sphere points against w
    return _report(f, cfg, samples, values[None], w[None], -1, ok[None],
                   np.zeros((1, pts.size), dtype=bool), None, trace_path)


# ---------------------------------------------------------------------------
# eq1 scan


def default_alpha_grid() -> tuple[float, ...]:
    return tuple(np.linspace(0.1, 1.0, 10).tolist())


def eq1_scan(
    f: ShearingMap,
    alphas: Sequence[float] | None = None,
    sampler: SamplerConfig | None = None,
    workers: int = 1,
    trace_path=None,
) -> ScanReport:
    """Minimum eq1_residual over the alpha-grid x sampling plan.  This is a
    necessary-condition check only: a violation disproves starlikeness, while
    a clean scan proves nothing.  Samples out of double range are certified
    in log-magnitude arithmetic when one term dominates (residual -inf) and
    refused otherwise.  workers is accepted for compatibility and has no
    effect."""
    cfg = sampler if sampler is not None else SamplerConfig()
    avals = tuple(map(_check_alpha, default_alpha_grid() if alphas is None else alphas))
    if not avals:
        raise ConfigError("alpha grid must be nonempty")
    if all(a == 1.0 for a in avals):
        raise ConfigError(
            "the alpha grid has no alpha below 1, so no sample depends on g; nothing to report"
        )
    count = cfg.sample_count
    require_point_count(len(avals) * count, f"{len(avals)} alphas x {count} samples")
    with np.errstate(all="ignore"):
        samples, live = _screen(f, _build_samples(cfg), avals, trace_path)
        pts, src, r1, phi1 = samples
        given = ~np.isnan(phi1)
        a2sq = np.abs(pts[src]) ** 2
        # a row alpha < 1 that is not live lies above the minimum
        values = np.full((len(avals), src.size), math.inf)
        # per alpha and point; c = g(z2) - g(a z2)/a is 0 at alpha = 1
        ok = np.ones((len(avals), pts.size), dtype=bool)
        certified = np.zeros_like(ok)
        c = np.zeros(ok.shape, dtype=complex)
        values[np.asarray(avals) == 1.0] = 1.0 - (r1 * r1 + a2sq)
        rows = np.flatnonzero(live)  # the alphas < 1 whose row is evaluated, all at once

        def kernels(z):
            value = f.g.eval_raw(z)
            return value, f.g.log_abs_of(z, value)

        if rows.size:
            g2, la2 = _by_rows(kernels, pts)
            a = np.asarray(avals)[rows, None]
            ga, laa = _by_rows(kernels, pts, a)
            laa = laa - _logs(a[:, 0])
            ok[rows], certified[rows] = okr, certr = _eq1_status(la2, laa)
            c[rows] = cr = g2 - ga / a
            mm = r1 + np.abs(cr)[:, src]
            z1_given = r1[given] * np.exp(1j * phi1[given])
            mm[:, given] = np.abs(z1_given + cr[:, src[given]])
            v = 1.0 / (a * a) - (mm * mm + a2sq)
            values[rows] = np.where(certr[:, src], -math.inf, np.where(okr[:, src], v, math.nan))
    # the minimizing z1 on the sphere points along c
    return _report(f, cfg, samples, values, c, 1, ok, certified, avals, trace_path)
