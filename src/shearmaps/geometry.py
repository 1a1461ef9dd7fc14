"""Sampled verification of the geometric inequalities behind the certificates.

starlike_quantity evaluates Re<[df(z)]^-1 f(z), z>, which for a shearing map
collapses to the closed form

    |z|^2 + Re((g(z2) - z2 g'(z2)) * conj(z1)),

nonnegative on the punctured ball exactly when the map is starlike.
eq1_residual evaluates the slack of the necessary inequality

    |z1 + g(z2) - (1/a) g(a z2)|^2 + |z2|^2 < 1/a^2,   a in (0, 1],

which every starlike shearing map satisfies (at a = 1 the residual is
exactly 1 - |z|^2).  boundedness_scan reports max log|g| on a circle.

The scans sample sphere-stratified structured grids (radius s, split
|z2|^2 = t s^2, phase of z2), plus seeded random points and user probes
(each evaluated both as given and with z1 realigned).  Both quantities
depend on z1 only through |z1| and its phase against one complex number
per point, so a realigned z1 is exact: z1 = -|z1| w/|w| with
w = g(z2) - z2 g'(z2) for the starlike quantity, and z1 = +|z1| c/|c| with
c = g(z2) - g(a z2)/a for eq1 (|z1| itself where that number is 0).  The
probe-free part of the plan depends only on the sampler's dimensions and
seed and is cached, read-only.  The scans run on one thread; their
`workers` argument is accepted for compatibility and has no effect.

The kernels see each distinct z2 of the plan once (both copies of a random
point or probe share it): g(z2), g'(z2) and, for eq1, g(a z2) for every
alpha < 1 are evaluated as whole arrays, and only the arithmetic that
involves z1 runs per sample.  Values whose log-magnitudes exceed a
screening limit are not trusted in double precision.  The starlike scan
excludes those samples (counted as `refused`), while the eq1 scan
certifies the residual sign in log-magnitude arithmetic when one term
dominates (reported as a -inf residual) and refuses otherwise.

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
from .series import BallPoint, DiskFunction, as_ball_point, require_point_count
from .shear import ShearingMap

DEFAULT_SEED = 1729

# A minimum below this is a violation; anything closer to zero is rounding.
VIOLATION_THRESHOLD = -1e-12

# Samples with log-magnitudes beyond this are not evaluated plainly; the
# headroom below the 700 evaluation-refusal limit keeps products of the
# screened values finite in doubles.
SCAN_LOG_LIMIT = 600.0

# Log-domain sign certification requires this many nats of domination.
_LOG_DOMINANCE_MARGIN = 30.0

# Extremal split |z2|^2 / s^2 for monomial shears; always kept in the t-grid.
_EXTREMAL_SPLIT = 2.0 / 3.0


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
        for name in ("n_radial", "n_split", "n_phase"):
            if int(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))
        if int(self.n_random) < 0:
            raise ConfigError(f"n_random must be >= 0, got {self.n_random!r}")
        object.__setattr__(self, "n_random", int(self.n_random))
        if int(self.seed) < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
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
    and enough configuration to regenerate the scan byte-for-byte."""

    kind: str
    extremum: float
    witness: BallPoint
    samples: int
    refused: int
    violation: bool
    threshold: float
    config_digest: str
    alpha: float | None = None


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
    m2 = abs(p.z1 + c) ** 2
    if not math.isfinite(m2):
        raise OverflowRefusalError(
            "residual magnitude exceeds double range; the scan's log-domain "
            "path certifies the sign instead"
        )
    return 1.0 / (a * a) - (m2 + abs(p.z2) ** 2)


def boundedness_scan(
    g: DiskFunction, r: float, angles: Sequence[float] = (), n_angular: int = 4096
) -> float:
    """Max of log|g| over the circle |zeta| = r (uniform angles plus probes),
    through DiskFunction.log_abs_of, so closed forms never overflow.  Returns
    -inf when g vanishes at every probed point (identically-small state)."""
    r = float(r)
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    if n_angular < 1:
        raise ConfigError(f"n_angular must be >= 1, got {n_angular}")
    phi = np.concatenate(
        [np.arange(n_angular) * (2.0 * math.pi / n_angular),
         np.asarray(list(angles), dtype=float)]
    )
    zeta = r * np.exp(1j * phi)
    with np.errstate(all="ignore"):
        return float(np.max(g.log_abs_of(zeta, g.eval_raw(zeta))))


# ---------------------------------------------------------------------------
# sample construction


def _split_grid(n_split: int) -> np.ndarray:
    grid = np.linspace(0.0, 1.0, n_split)
    return np.unique(np.append(grid, _EXTREMAL_SPLIT))


class _Samples(NamedTuple):
    points: np.ndarray  # complex: each distinct z2 of the plan once
    src: np.ndarray     # each sample's index into points
    r1: np.ndarray      # |z1|
    phi1: np.ndarray    # phase of z1; NaN means adversarially aligned
    given: np.ndarray   # indices of the samples with a given phase


def _add_twice(base: _Samples, z2, z1_abs, z1_phase) -> _Samples:
    """base plus the points z2, each sampled twice: with z1 as given
    (modulus z1_abs, phase z1_phase) and with z1 realigned."""
    idx = np.arange(base.points.size, base.points.size + z2.size)
    phi1 = np.concatenate([base.phi1, z1_phase, np.full(z2.size, np.nan)])
    return _Samples(
        points=np.concatenate([base.points, z2]), src=np.concatenate([base.src, idx, idx]),
        r1=np.concatenate([base.r1, z1_abs, z1_abs]), phi1=phi1,
        given=np.flatnonzero(~np.isnan(phi1)),
    )


@functools.lru_cache(maxsize=4)
def _plan(radius, n_radial, n_split, n_phase, n_random, seed) -> _Samples:
    """The structured grid and the random points, read-only.  Keyed on the
    numbers alone: probes stay out, because BallPoint(0, -0.0) equals and
    hashes like BallPoint(0, 0.0), and a cached probe would change a signed
    zero in a later report."""
    s_grid = np.linspace(radius / n_radial, radius, n_radial)
    t_grid = _split_grid(n_split)
    p_grid = np.arange(n_phase) * (2.0 * math.pi / n_phase)
    s, t, phi2 = (a.ravel() for a in np.meshgrid(s_grid, t_grid, p_grid, indexing="ij"))
    plan = _Samples(
        points=s * np.sqrt(t) * np.exp(1j * phi2), src=np.arange(s.size),
        r1=s * np.sqrt(1.0 - t), phi1=np.full(s.size, np.nan), given=np.arange(0),
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
    return plan


def _build_samples(cfg: SamplerConfig) -> _Samples:
    plan = _plan(cfg.radius, cfg.n_radial, cfg.n_split, cfg.n_phase, cfg.n_random, cfg.seed)
    if not cfg.probes:
        return plan
    pz1 = np.asarray([p.z1 for p in cfg.probes], dtype=complex)
    pz2 = np.asarray([p.z2 for p in cfg.probes], dtype=complex)
    return _add_twice(plan, pz2, np.abs(pz1), np.angle(pz1))


# ---------------------------------------------------------------------------
# witness, trace and report, shared by both scans


def _report(
    f: ShearingMap, cfg: SamplerConfig, samples: _Samples, values: np.ndarray,
    c: np.ndarray, sign: int, ok: np.ndarray, certified: np.ndarray,
    alphas: tuple[float, ...] | None, trace_path,
) -> ScanReport:
    """Witness, trace and report of a scan with one row of sample values
    per alpha (the starlike scan: one row, alphas None).  c, ok and
    certified hold per row and distinct z2 the number a realigned z1
    follows, the screen, and the log-magnitude sign certificate.  A
    realigned z1 is sign |z1| c/|c|, or |z1| where c = 0 or the sample is
    certified.  Ties for the minimum go to the lexicographically least key
    (z1, z2, alpha), then to the lowest index; NaN (refused) never wins.  A
    finite minimum is re-evaluated exactly at its witness."""
    pts, src, r1, phi1, _ = samples
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
            absc = np.abs(cp)
            # (sign * r) first: r * (-c) can flip the sign of a zero part
            z1 = np.where(okp & (absc > 0.0), (sign * r) * cp / np.where(absc > 0.0, absc, 1.0), r)
            z1 = np.where(np.isnan(phi1[j]), z1, r * np.exp(1j * phi1[j]))
        return np.where(okp | certified[i, p], z1, complex(np.nan, np.nan))

    # a sample depends on g when z2 != 0 (eq1: and alpha < 1)
    depends_on_g = (pts != 0.0)[src]
    if eq1:
        depends_on_g = depends_on_g & (np.asarray(alphas)[:, None] < 1.0)
    if not (~np.isnan(values) & depends_on_g).any():
        raise ConfigError("every sample whose value depends on g was refused; nothing to report")
    cand = np.flatnonzero(flat == np.fmin.reduce(flat))
    z1, z2 = z1_of(cand), pts[src[cand % n]]
    keys = np.column_stack([z1.real, z1.imag, z2.real, z2.imag]
                           + ([np.asarray(alphas)[cand // n]] if eq1 else []))
    best = int(cand[min(range(cand.size), key=lambda k: tuple(keys[k]))])
    witness = BallPoint(complex(z1_of([best])[0]), complex(pts[src[best % n]]))
    alpha = alphas[best // n] if eq1 else None
    extremum = float(flat[best])
    if math.isfinite(extremum):
        extremum = eq1_residual(f, alpha, witness) if eq1 else starlike_quantity(f, witness)

    parts = [
        f"kind={kind}",
        f"input={f.label or 'shear'}",
        f"radius={cfg.radius!r}",
        f"s_grid={cfg.n_radial}",
        f"t_grid={cfg.n_split}",
        f"phase_grid={cfg.n_phase}",
        f"random={cfg.n_random}",
        f"seed={cfg.seed}",
        f"probes={len(cfg.probes)}",
    ]
    if eq1:
        parts += ["label=necessary-condition-check",
                  f"alphas={alphas[0]!r}:{alphas[-1]!r}:{len(alphas)}"]
    digest = ";".join(parts + [f"log_limit={SCAN_LOG_LIMIT!r}", f"refused={refused}"])
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
            fh.write(f"# {digest}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([f"{x:.17g}" for x in row] for row in zip(*columns))
    return ScanReport(
        kind=kind,
        extremum=extremum,
        witness=witness,
        samples=n,
        refused=refused,
        violation=extremum < VIOLATION_THRESHOLD,
        threshold=VIOLATION_THRESHOLD,
        config_digest=digest,
        alpha=alpha,
    )


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
    samples = _build_samples(cfg)
    pts, src, r1, phi1, given = samples
    with np.errstate(all="ignore"):
        g = f.g.eval_raw(pts)
        w = g - pts * f.g.deriv_raw(pts)
        ok = f.g.log_abs_of(pts, g) <= SCAN_LOG_LIMIT
        if f.g.deriv_log_abs_raw is not None:
            ok &= np.asarray(f.g.deriv_log_abs_raw(pts), dtype=float) <= SCAN_LOG_LIMIT
        norm_sq = r1**2 + np.abs(pts[src]) ** 2
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
    return tuple(np.linspace(0.1, 1.0, 10))


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
    avals = tuple(
        _check_alpha(a) for a in (alphas if alphas is not None else default_alpha_grid())
    )
    if not avals:
        raise ConfigError("alpha grid must be nonempty")
    if all(a == 1.0 for a in avals):
        raise ConfigError(
            "the alpha grid has no alpha below 1, so no sample depends on g; nothing to report"
        )
    require_point_count(len(avals) * cfg.sample_count,
                        f"{len(avals)} alphas x {cfg.sample_count} samples")
    samples = _build_samples(cfg)
    pts, src, r1, phi1, given = samples
    n = src.size
    a2sq = np.abs(pts[src]) ** 2
    values = np.empty((len(avals), n))
    # per alpha and point; c = g(z2) - g(a z2)/a is 0 at alpha = 1
    ok = np.ones((len(avals), pts.size), dtype=bool)
    certified = np.zeros_like(ok)
    c = np.zeros(ok.shape, dtype=complex)
    with np.errstate(all="ignore"):
        g2 = f.g.eval_raw(pts)
        la2 = f.g.log_abs_of(pts, g2)
        z1_given = r1[given] * np.exp(1j * phi1[given])
        for i, a in enumerate(avals):
            if a == 1.0:
                values[i] = 1.0 - (r1 * r1 + a2sq)
                continue
            ga = f.g.eval_raw(a * pts)
            laa = f.g.log_abs_of(a * pts, ga) - math.log(a)
            ok[i] = (la2 <= SCAN_LOG_LIMIT) & (laa <= SCAN_LOG_LIMIT)
            # one term out of double range: certify the sign when it
            # dominates the other, refuse (NaN) otherwise
            certified[i] = (~ok[i]) & (
                np.maximum(la2, laa) - np.minimum(la2, laa) > _LOG_DOMINANCE_MARGIN
            )
            c[i] = g2 - ga / a
            mm = r1 + np.abs(c[i])[src]
            mm[given] = np.abs(z1_given + c[i][src[given]])
            values[i] = 1.0 / (a * a) - (mm * mm + a2sq)
            values[i][~ok[i][src]] = np.nan
            values[i][certified[i][src]] = -math.inf
    # the minimizing z1 on the sphere points along c
    return _report(f, cfg, samples, values, c, 1, ok, certified, avals, trace_path)
