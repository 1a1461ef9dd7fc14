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
|z2|^2 = t s^2, phase of z2; the phase of z1 is chosen adversarially, which
is exact because the quantity depends on z1 only through its modulus and one
relative phase), plus seeded random points and user probes (each probe is
evaluated both as given and with the phase of z1 adversarially realigned).
Reductions are ordered and partition-independent: minima with ties broken by
lexicographic witness order, so reports are byte-identical for any worker
count.

Each chunk of samples is evaluated once, then screened: samples whose
log-magnitudes exceed a screening limit are not trusted in double precision.
The starlike scan excludes them (counted as `refused`), while the eq1 scan
certifies the residual sign in log-magnitude arithmetic when one term
dominates (reported as a -inf residual) and refuses otherwise.  A scan in
which every sample whose value depends on g was refused is an error.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, OverflowRefusalError
from .series import BallPoint, DiskFunction, as_ball_point
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

_CHUNK = 8192


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


def eq1_residual(f: ShearingMap, alpha: float, point) -> float:
    """1/a^2 - (|z1 + g(z2) - (1/a) g(a z2)|^2 + |z2|^2); at a = 1 this is
    exactly 1 - |z|^2."""
    a = float(alpha)
    if not (0.0 < a <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
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


@dataclass(frozen=True)
class _Samples:
    z2: np.ndarray    # complex
    r1: np.ndarray    # |z1|
    phi1: np.ndarray  # phase of z1; NaN means adversarially aligned


def _build_samples(cfg: SamplerConfig) -> _Samples:
    s_grid = np.linspace(cfg.radius / cfg.n_radial, cfg.radius, cfg.n_radial)
    t_grid = _split_grid(cfg.n_split)
    p_grid = np.arange(cfg.n_phase) * (2.0 * math.pi / cfg.n_phase)
    s, t, phi2 = (a.ravel() for a in np.meshgrid(s_grid, t_grid, p_grid, indexing="ij"))
    z2 = [s * np.sqrt(t) * np.exp(1j * phi2)]
    r1 = [s * np.sqrt(1.0 - t)]
    phi1 = [np.full(s.size, np.nan)]

    if cfg.n_random:
        rng = np.random.default_rng(cfg.seed)
        rs = cfg.radius * rng.random(cfg.n_random) ** 0.25
        rt = rng.random(cfg.n_random)
        rp1 = 2.0 * math.pi * rng.random(cfg.n_random)
        rp2 = 2.0 * math.pi * rng.random(cfg.n_random)
        rz2 = rs * np.sqrt(rt) * np.exp(1j * rp2)
        rr1 = rs * np.sqrt(1.0 - rt)
        # each random point enters twice: as drawn, and with z1 realigned
        z2 += [rz2, rz2]
        r1 += [rr1, rr1]
        phi1 += [rp1, np.full(cfg.n_random, np.nan)]

    if cfg.probes:
        pz1 = np.asarray([p.z1 for p in cfg.probes], dtype=complex)
        pz2 = np.asarray([p.z2 for p in cfg.probes], dtype=complex)
        z2 += [pz2, pz2]
        r1 += [np.abs(pz1), np.abs(pz1)]
        phi1 += [np.angle(pz1), np.full(len(cfg.probes), np.nan)]

    return _Samples(
        z2=np.concatenate(z2), r1=np.concatenate(r1), phi1=np.concatenate(phi1)
    )


def _chunks(n: int) -> list[slice]:
    return [slice(i, min(i + _CHUNK, n)) for i in range(0, n, _CHUNK)]


def _map_chunks(fn, slices, workers: int):
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, slices))
    return [fn(sl) for sl in slices]


def _pick_witness(values: np.ndarray, keys: np.ndarray, depends_on_g: np.ndarray) -> int:
    """Index of the minimum value; ties broken by lexicographic witness key.
    NaN entries (refused samples) never win.  A scan in which every sample
    whose value depends on g was refused carries no information and fails."""
    valid = ~np.isnan(values)
    if not (valid & depends_on_g).any():
        raise ConfigError("every sample whose value depends on g was refused; nothing to report")
    vmin = np.min(values[valid])
    cand = np.flatnonzero(valid & (values == vmin))
    best = min(cand, key=lambda i: tuple(keys[i]))
    return int(best)


def _digest(kind: str, f: ShearingMap, cfg: SamplerConfig, refused: int, extra: str = "") -> str:
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
    if extra:
        parts.append(extra)
    parts += [f"log_limit={SCAN_LOG_LIMIT!r}", f"refused={refused}"]
    return ";".join(parts)


def _write_trace(path, digest: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {digest}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.17g}" for x in row])


def _trace_geometry(z1: np.ndarray, z2: np.ndarray):
    s = np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(s > 0.0, (np.abs(z2) / np.where(s > 0.0, s, 1.0)) ** 2, 0.0)
    return s, t, np.angle(z1), np.angle(z2)


# ---------------------------------------------------------------------------
# starlike scan


def starlike_scan(
    f: ShearingMap,
    sampler: SamplerConfig | None = None,
    workers: int = 1,
    trace_path=None,
) -> ScanReport:
    """Minimum of starlike_quantity over the sampling plan.  Violation means
    a minimum below the -1e-12 threshold; a starlike map never produces one."""
    cfg = sampler if sampler is not None else SamplerConfig()
    samples = _build_samples(cfg)
    n = samples.z2.size

    def run(sl: slice):
        z2 = samples.z2[sl]
        r1 = samples.r1[sl]
        phi1 = samples.phi1[sl]
        aligned = np.isnan(phi1)
        with np.errstate(all="ignore"):
            g = f.g.eval_raw(z2)
            w = g - z2 * f.g.deriv_raw(z2)
            ok = f.g.log_abs_of(z2, g) <= SCAN_LOG_LIMIT
            if f.g.deriv_log_abs_raw is not None:
                ok &= np.asarray(f.g.deriv_log_abs_raw(z2), dtype=float) <= SCAN_LOG_LIMIT
            norm_sq = r1**2 + np.abs(z2) ** 2
            absw = np.abs(w)
            safe = np.where(absw > 0.0, absw, 1.0)
            z1_aligned = np.where(absw > 0.0, -r1 * w / safe, r1.astype(complex))
            z1_given = r1 * np.exp(1j * phi1)
            values = np.where(
                aligned, norm_sq - absw * r1, norm_sq + (w * np.conj(z1_given)).real
            )
        values[~(ok & np.isfinite(values))] = np.nan
        z1 = np.where(ok, np.where(aligned, z1_aligned, z1_given), complex(np.nan, np.nan))
        return values, z1

    parts = _map_chunks(run, _chunks(n), workers)
    values = np.concatenate([p[0] for p in parts])
    z1 = np.concatenate([p[1] for p in parts])
    refused = int(np.isnan(values).sum())
    keys = np.column_stack([z1.real, z1.imag, samples.z2.real, samples.z2.imag])
    best = _pick_witness(values, keys, samples.z2 != 0.0)
    witness = BallPoint(complex(z1[best]), complex(samples.z2[best]))
    extremum = starlike_quantity(f, witness)
    digest = _digest("starlike-scan", f, cfg, refused)
    if trace_path is not None:
        s, t, p1, p2 = _trace_geometry(z1, samples.z2)
        _write_trace(
            trace_path, digest, ["s", "t", "phase1", "phase2", "value"],
            zip(s, t, p1, p2, values),
        )
    return ScanReport(
        kind="starlike-scan",
        extremum=extremum,
        witness=witness,
        samples=n,
        refused=refused,
        violation=extremum < VIOLATION_THRESHOLD,
        threshold=VIOLATION_THRESHOLD,
        config_digest=digest,
    )


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
    refused otherwise."""
    cfg = sampler if sampler is not None else SamplerConfig()
    avals = tuple(float(a) for a in (alphas if alphas is not None else default_alpha_grid()))
    if not avals:
        raise ConfigError("alpha grid must be nonempty")
    for a in avals:
        if not (0.0 < a <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {a!r}")
    samples = _build_samples(cfg)
    n = samples.z2.size
    na = len(avals)

    def run(sl: slice):
        z2 = samples.z2[sl]
        r1 = samples.r1[sl]
        phi1 = samples.phi1[sl]
        values = np.empty((na, z2.size))
        z1_act = np.empty((na, z2.size), dtype=complex)
        a2sq = np.abs(z2) ** 2
        aligned = np.isnan(phi1)
        with np.errstate(all="ignore"):
            z1_given = r1 * np.exp(1j * phi1)
            g2 = f.g.eval_raw(z2)
            la2 = f.g.log_abs_of(z2, g2)
        z1_plain = np.where(aligned, r1.astype(complex), z1_given)
        for i, a in enumerate(avals):
            if a == 1.0:
                values[i] = 1.0 - (r1 * r1 + a2sq)
                z1_act[i] = z1_plain
                continue
            with np.errstate(all="ignore"):
                ga = f.g.eval_raw(a * z2)
                laa = f.g.log_abs_of(a * z2, ga) - math.log(a)
                ok = (la2 <= SCAN_LOG_LIMIT) & (laa <= SCAN_LOG_LIMIT)
                # one term out of double range: certify the sign when it
                # dominates the other, refuse (NaN) otherwise
                certified = (~ok) & (
                    np.maximum(la2, laa) - np.minimum(la2, laa) > _LOG_DOMINANCE_MARGIN
                )
                c = g2 - ga / a
                absc = np.abs(c)
                safe = np.where(absc > 0.0, absc, 1.0)
                z1a = np.where(absc > 0.0, r1 * c / safe, r1.astype(complex))
                mm = np.where(aligned, r1 + absc, np.abs(z1_given + c))
                vals = 1.0 / (a * a) - (mm * mm + a2sq)
            values[i] = np.where(ok, vals, np.where(certified, -math.inf, np.nan))
            z1_act[i] = np.where(
                ok, np.where(aligned, z1a, z1_given),
                np.where(certified, z1_plain, complex(np.nan, np.nan)),
            )
        return values, z1_act

    parts = _map_chunks(run, _chunks(n), workers)
    values = np.concatenate([p[0] for p in parts], axis=1)
    z1_act = np.concatenate([p[1] for p in parts], axis=1)
    refused = int(np.isnan(values).sum())

    flat = values.ravel()
    z1_flat = z1_act.ravel()
    z2_flat = np.broadcast_to(samples.z2, values.shape).ravel()
    alpha_flat = np.repeat(np.asarray(avals), n)
    keys = np.column_stack(
        [z1_flat.real, z1_flat.imag, z2_flat.real, z2_flat.imag, alpha_flat]
    )
    depends_on_g = (alpha_flat < 1.0) & (z2_flat != 0.0)
    best = _pick_witness(flat, keys, depends_on_g)
    witness = BallPoint(complex(z1_flat[best]), complex(z2_flat[best]))
    alpha_star = float(alpha_flat[best])
    extremum = float(flat[best])
    if math.isfinite(extremum):
        extremum = eq1_residual(f, alpha_star, witness)
    extra = (
        "label=necessary-condition-check;"
        f"alphas={avals[0]!r}:{avals[-1]!r}:{na}"
    )
    digest = _digest("eq1-scan", f, cfg, refused, extra=extra)
    if trace_path is not None:
        s, t, p1, p2 = _trace_geometry(z1_flat, z2_flat)
        _write_trace(
            trace_path, digest, ["alpha", "s", "t", "phase1", "phase2", "value"],
            zip(alpha_flat, s, t, p1, p2, flat),
        )
    return ScanReport(
        kind="eq1-scan",
        extremum=extremum,
        witness=witness,
        samples=n,
        refused=refused,
        violation=extremum < VIOLATION_THRESHOLD,
        threshold=VIOLATION_THRESHOLD,
        config_digest=digest,
        alpha=alpha_star,
    )
