import csv
import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    KERNELS,
    counted_shear,
    geometric_shear,
    identity_shear,
    monomial_shear,
    random_ball_points,
)
from shearmaps import (
    BallPoint,
    CoefficientSeries,
    ConfigError,
    DiskFunction,
    DomainError,
    OverflowRefusalError,
    SamplerConfig,
    ShearingMap,
    counterexample_map,
    default_alpha_grid,
    eq1_residual,
    eq1_scan,
    shear_from_series,
    starlike_quantity,
    starlike_scan,
)
from shearmaps.geometry import (SCAN_LOG_LIMIT, _build_samples, _by_rows, _log_bounds,
                                _majorant_table, _node, _radial_bounds, _screen, _split_grid,
                                _subplan)
from shearmaps.series import LOG_KERNEL_ETA, LOG_KERNEL_RADIUS, _horner

# peak of s^2 - |a2| c s^3 analysis: the sphere minimum of the starlike
# quantity for g = a2 z^2 sits at |z2|^2 = (2/3) s^2 with value
# s^2 - |a2| * (2 / (3 sqrt 3)) * s^3
MONOMIAL_SLOPE = 2.0 / (3.0 * math.sqrt(3.0))

SMALL = SamplerConfig(radius=0.9, n_radial=6, n_split=7, n_phase=4, n_random=300)


def generic_starlike_quantity(f, p):
    """Independent route: Re<[df(z)]^-1 f(z), z> via a numpy linear solve."""
    j = np.array([[1.0, f.g.deriv(p.z2)], [0.0, 1.0]])
    u = np.linalg.solve(j, np.array(f.eval(p), dtype=complex))
    return (u[0] * p.z1.conjugate() + u[1] * p.z2.conjugate()).real


@pytest.mark.parametrize("a2", [0.5, 2.7])
def test_starlike_quantity_matches_generic_route(a2):
    f = monomial_shear(a2)
    rng = np.random.default_rng(31)
    for p in random_ball_points(rng, 400):
        np.testing.assert_allclose(
            starlike_quantity(f, p), generic_starlike_quantity(f, p),
            rtol=1e-10, atol=1e-12,
        )


def test_starlike_quantity_geometric_vs_generic():
    f = geometric_shear()
    rng = np.random.default_rng(32)
    for p in random_ball_points(rng, 200):
        np.testing.assert_allclose(
            starlike_quantity(f, p), generic_starlike_quantity(f, p),
            rtol=1e-10, atol=1e-12,
        )


def test_identity_map_quantity_is_norm_squared():
    f = identity_shear()
    p = BallPoint(0.3 + 0.4j, -0.5j)
    assert starlike_quantity(f, p) == pytest.approx(p.norm_sq, rel=1e-15)


def test_monomial_sphere_minimum_closed_form():
    """One-sphere scan must land on the analytic minimum (the split grid
    always contains t = 2/3 and the phase alignment is exact)."""
    s = 0.98
    f = monomial_shear(2.7)
    cfg = SamplerConfig(radius=s, n_radial=1, n_split=7, n_phase=4, n_random=0)
    report = starlike_scan(f, sampler=cfg)
    predicted = s * s - 2.7 * MONOMIAL_SLOPE * s**3
    np.testing.assert_allclose(report.extremum, predicted, rtol=1e-12)
    assert report.violation
    w = report.witness
    np.testing.assert_allclose(abs(w.z2) ** 2, (2.0 / 3.0) * s * s, rtol=1e-12)
    np.testing.assert_allclose(w.norm_sq, s * s, rtol=1e-12)


def test_starlike_scan_certified_map_clean():
    report = starlike_scan(geometric_shear(), sampler=SMALL)
    assert not report.violation
    assert report.extremum >= report.threshold
    assert report.refused == 0
    assert report.samples == SMALL.sample_count


def test_scan_determinism_and_workers():
    f = monomial_shear(2.7)
    a = starlike_scan(f, sampler=SMALL, workers=1)
    b = starlike_scan(f, sampler=SMALL, workers=4)
    c = starlike_scan(f, sampler=SMALL, workers=1)
    assert a == b == c


def test_scan_tie_breaking_is_deterministic():
    """g = 0 makes the quantity constant on every sphere, so the minimum is
    massively tied; the witness must still be reproducible."""
    f = identity_shear()
    cfg = SamplerConfig(radius=0.8, n_radial=4, n_split=5, n_phase=4, n_random=50)
    a = starlike_scan(f, sampler=cfg)
    b = starlike_scan(f, sampler=cfg, workers=3)
    assert a == b
    smallest = 0.8 / 4
    np.testing.assert_allclose(a.extremum, smallest**2, rtol=1e-12)
    np.testing.assert_allclose(a.witness.norm_sq, smallest**2, rtol=1e-12)


def test_probe_bounds_the_extremum():
    f = monomial_shear(2.7)
    probe = BallPoint(0.1 + 0.05j, 0.7j)
    cfg = SamplerConfig(radius=0.5, n_radial=2, n_split=3, n_phase=2, n_random=0,
                        probes=(probe,))
    report = starlike_scan(f, sampler=cfg)
    assert report.extremum <= starlike_quantity(f, probe) + 1e-12
    assert report.samples == cfg.sample_count


def test_scan_counts_refused_samples():
    ce = counterexample_map()
    # z2 approaching 1 along this ray drives log|g| to ~5.8e5, far past the
    # screening limit, so the probe (in both its as-given and aligned copies)
    # must be refused rather than poisoning the minimum with non-finite noise
    hot = 1.0 - 0.012 * complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
    cfg = SamplerConfig(radius=0.9, n_radial=4, n_split=5, n_phase=4, n_random=100,
                        probes=((0.1, hot),))
    report = starlike_scan(ce, sampler=cfg)
    assert report.refused >= 2  # both copies of the probe, at least
    assert report.refused < report.samples
    assert math.isfinite(report.extremum)


def test_scan_with_everything_refused_raises():
    off_scale = DiskFunction(
        eval_raw=lambda z: 0.0 * z,
        deriv_raw=lambda z: 0.0 * z,
        log_abs_raw=lambda z: 1000.0 + 0.0 * abs(z),
        label="off-scale",
    )
    f = ShearingMap(off_scale)
    with pytest.raises(ConfigError, match="refused"):
        starlike_scan(f, sampler=SMALL)


def test_sampler_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(radius=1.0)
    with pytest.raises(ConfigError):
        SamplerConfig(radius=0.0)
    with pytest.raises(ConfigError):
        SamplerConfig(n_radial=0)
    with pytest.raises(ConfigError):
        SamplerConfig(n_random=-1)
    with pytest.raises(DomainError):
        SamplerConfig(probes=((0.9, 0.9),))
    # refused from the counts alone, before a plan past numpy's limits is built
    with pytest.raises(ConfigError, match=str(2**48)):
        SamplerConfig(n_phase=2**48)


def test_trace_rows_reproduce_values(tmp_path):
    f = monomial_shear(2.7)
    cfg = SamplerConfig(radius=0.9, n_radial=3, n_split=3, n_phase=2, n_random=20)
    trace = tmp_path / "trace.csv"
    report = starlike_scan(f, sampler=cfg, trace_path=trace)
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# kind=starlike-scan")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == report.samples
    for row in rows[:: max(1, len(rows) // 25)]:
        s, t = float(row["s"]), min(max(float(row["t"]), 0.0), 1.0)
        z1 = s * math.sqrt(1.0 - t) * complex(math.cos(float(row["phase1"])),
                                              math.sin(float(row["phase1"])))
        z2 = s * math.sqrt(t) * complex(math.cos(float(row["phase2"])),
                                        math.sin(float(row["phase2"])))
        np.testing.assert_allclose(
            starlike_quantity(f, (z1, z2)), float(row["value"]), rtol=1e-9, atol=1e-12
        )


# ---------------------------------------------------------------------------
# eq1 residual


def eq1_monomial_direct(a2, alpha, p):
    c = a2 * p.z2 * p.z2 * (1.0 - alpha)
    return 1.0 / alpha**2 - (abs(p.z1 + c) ** 2 + abs(p.z2) ** 2)


def test_eq1_residual_alpha_one_is_exact_complement():
    f = geometric_shear()
    rng = np.random.default_rng(33)
    for p in random_ball_points(rng, 50):
        assert eq1_residual(f, 1.0, p) == 1.0 - p.norm_sq
    ce = counterexample_map()
    p = BallPoint(0.2, 0.3j)
    assert eq1_residual(ce, 1.0, p) == 1.0 - p.norm_sq


def test_eq1_residual_matches_direct_formula():
    f = monomial_shear(2.7)
    rng = np.random.default_rng(34)
    for p in random_ball_points(rng, 100):
        for alpha in (0.1, 0.37, 0.8, 1.0):
            np.testing.assert_allclose(
                eq1_residual(f, alpha, p),
                eq1_monomial_direct(2.7, alpha, p),
                rtol=1e-12, atol=1e-12,
            )


def test_eq1_residual_alpha_domain():
    f = geometric_shear()
    p = BallPoint(0.1, 0.1)
    # 1e-200: alpha^2 underflows to 0; 1e-160: 1/alpha^2 overflows to inf
    for alpha in (0.0, -0.3, 1.0000001, math.nan, 1e-200, 1e-160):
        with pytest.raises(DomainError):
            eq1_residual(f, alpha, p)


def test_eq1_residual_overflow_is_a_typed_refusal():
    # |z1 + c| is finite but its square is not; float ** raises OverflowError
    f = shear_from_series(CoefficientSeries([1e300]))
    with pytest.raises(OverflowRefusalError):
        eq1_residual(f, 0.5, (0, 0.5))


def test_default_alpha_grid():
    grid = default_alpha_grid()
    assert len(grid) == 10
    assert all(type(a) is float for a in grid)
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == 1.0


def test_eq1_scan_embeddable_map_is_clean():
    report = eq1_scan(geometric_shear(), sampler=SMALL)
    assert not report.violation
    assert report.extremum >= report.threshold
    assert report.alpha in default_alpha_grid()
    assert report.samples == SMALL.sample_count


def test_eq1_scan_determinism_and_workers():
    f = monomial_shear(1.3)
    a = eq1_scan(f, sampler=SMALL, workers=1)
    b = eq1_scan(f, sampler=SMALL, workers=4)
    assert a == b


def test_eq1_scan_validation():
    f = geometric_shear()
    with pytest.raises(ConfigError):
        eq1_scan(f, alphas=(), sampler=SMALL)
    with pytest.raises(DomainError):
        eq1_scan(f, alphas=(0.5, 1.5), sampler=SMALL)
    # at alpha = 1 the residual is 1 - |z|^2 for every map
    with pytest.raises(ConfigError, match="no alpha below 1"):
        eq1_scan(f, alphas=(1.0, 1.0), sampler=SMALL)
    # each count is allowed alone, the alpha x sample layout is not
    with pytest.raises(ConfigError, match="20000 alphas"):
        eq1_scan(f, alphas=(0.5,) * 20000, sampler=SamplerConfig(n_random=5 * 10**10))


def test_eq1_scan_witness_reproduces_extremum():
    f = monomial_shear(2.7)
    report = eq1_scan(f, sampler=SMALL)
    again = eq1_residual(f, report.alpha, report.witness)
    assert again == report.extremum


@pytest.mark.parametrize("scan", ["starlike", "eq1"])
@pytest.mark.parametrize(
    "coeffs", [(10.0,), (5j, 3 - 2j), (0.0, 16.0)], ids=["a2=10", "a2=5i,a3=3-2i", "a3=16"]
)
def test_extremum_is_the_trace_minimum(scan, coeffs, tmp_path):
    """The extremum, re-evaluated exactly at the witness, equals the least
    value the scan itself traced.  So the witness z1 is realigned the way
    the values were minimized over the sphere: against w = g - z2 g' for
    the starlike quantity, along c = g(z2) - g(a z2)/a for eq1."""
    f = shear_from_series(CoefficientSeries(coeffs), label="violating")
    trace = tmp_path / "trace.csv"
    if scan == "starlike":
        report = starlike_scan(f, sampler=SMALL, trace_path=trace)
    else:
        report = eq1_scan(f, alphas=(0.3, 0.6), sampler=SMALL, trace_path=trace)
    values = [float(row["value"]) for row in csv.DictReader(trace.read_text().splitlines()[1:])]
    assert report.violation
    assert math.isclose(
        report.extremum, min(v for v in values if not math.isnan(v)), rel_tol=1e-9
    )


def test_eq1_trace(tmp_path):
    f = monomial_shear(0.5)
    cfg = SamplerConfig(radius=0.8, n_radial=2, n_split=3, n_phase=2, n_random=10)
    trace = tmp_path / "eq1.csv"
    report = eq1_scan(f, alphas=(0.5, 1.0), sampler=cfg, trace_path=trace)
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# kind=eq1-scan")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 2 * report.samples  # one row per (alpha, sample)
    alphas = {float(r["alpha"]) for r in rows}
    assert alphas == {0.5, 1.0}


# ---------------------------------------------------------------------------
# kernel evaluations per sample

# two probes at z2 = 0 (also a structured z2), two sharing z2 = 0.5i
_PROBED = dataclasses.replace(
    SMALL, probes=((0.1, 0.0), (0.2j, 0.0), (0.0, 0.3), (0.3j, 0.5j), (0.1, 0.5j))
)


def test_scans_evaluate_each_point_once():
    """Kernels see each distinct z2 of the plan at most once: the
    structured grid, each random z2 and each probe z2 (a random point and a
    probe enter the plan twice, with z1 as given and realigned, but share
    one z2).  The closed-form counterexample is screened by its log
    kernels, while eval_raw and deriv_raw see only the kept points (the
    witness adds one call of each kernel a scan uses).  Its starlike screen
    bounds g and z2 g' per circle by log_max_abs and deriv_log_max_abs, so
    its log kernels see only the candidates of that coarse stage, once
    each, and the kept points once more: under nine tenths of the points on
    the small samplers, under a twentieth at the default one.  Its eq1
    screen bounds g(a z2) by log_max_abs, so log_abs_raw sees every point
    once and then only the coarse stage's few candidates, at z2 and at each
    a z2: under a quarter of the points more on the small samplers, under a
    tenth at the default one.  A series map
    derives log|g| from the value it computed and is screened by its
    coefficient majorant: each point is evaluated at most once (g and g'
    for the starlike scan, g(z2) and g(a z2) per alpha < 1 for eq1), and
    neither scan calls a log evaluator.  At the default sampler the screen
    keeps at most 200, 200 and 1 points for the starlike scans of the
    geometric series, of 0.5/k^3 (degree 200) and of the counterexample,
    and 1, 1 and 2 for their eq1 scans; the eq1 minimum of both series
    lies on the alpha = 1 row, every row alpha < 1 clears it as a whole,
    and g is never evaluated."""
    alphas = default_alpha_grid()
    below_one = sum(a < 1.0 for a in alphas)
    for cfg in (SMALL, _PROBED):
        points = cfg.sample_count - cfg.n_random - len(cfg.probes)

        def eq1_count(report):
            # the witness is re-evaluated through eq1_residual when finite
            witness = 2 if report.alpha < 1.0 and math.isfinite(report.extremum) else 0
            return points * (1 + below_one) + witness

        f, counts = counted_shear(geometric_shear())
        starlike_scan(f, sampler=cfg)
        # the witness is re-evaluated once through starlike_quantity
        assert set(counts) == {"eval_raw", "deriv_raw"}
        assert counts["eval_raw"] == counts["deriv_raw"] <= points + 1
        counts.clear()
        report = eq1_scan(f, alphas=alphas, sampler=cfg)
        assert set(counts) <= {"eval_raw"}
        assert counts.get("eval_raw", 0) <= eq1_count(report)

        f, counts = counted_shear(counterexample_map())
        starlike_scan(f, sampler=cfg)
        assert set(counts) == set(KERNELS)
        assert counts["eval_raw"] == counts["deriv_raw"] <= points // 10
        assert counts["log_abs_raw"] == counts["deriv_log_abs_raw"]
        assert counts["log_abs_raw"] <= points * 9 // 10 + counts["eval_raw"]
        counts.clear()
        report = eq1_scan(f, alphas=alphas, sampler=cfg)
        assert set(counts) == {"eval_raw", "log_abs_raw"}
        assert counts["eval_raw"] <= eq1_count(report) // 10
        assert counts["log_abs_raw"] <= points + points // 4

    plan = _build_samples(SamplerConfig())
    cubic = shear_from_series(CoefficientSeries(tuple(0.5 / k**3 for k in range(2, 201))))
    for f, caps in ((geometric_shear(), (200, 1)), (cubic, (200, 1)),
                    (counterexample_map(), (1, 2))):
        for avals, cap in zip((None, alphas), caps):
            with np.errstate(all="ignore"):
                sub, live = _screen(f, plan, avals, None)
            assert sub.points.size <= cap
        if f.g.coefficients is None:
            f, counts = counted_shear(f)
            starlike_scan(f)
            assert counts["log_abs_raw"] == counts["deriv_log_abs_raw"] <= plan.points.size // 20
            counts.clear()
            eq1_scan(f)
            assert counts["log_abs_raw"] <= plan.points.size + plan.points.size // 10
            continue
        assert not any(live)
        f, counts = counted_shear(f)
        starlike_scan(f)
        assert counts["eval_raw"] == counts["deriv_raw"] <= 200 + 1
        counts.clear()
        report = eq1_scan(f)
        assert report.alpha == 1.0
        assert counts == {}


_TINY = SamplerConfig(radius=0.95, n_radial=3, n_split=3, n_phase=2, n_random=30)


def _scan_outcome(scan, f):
    try:
        return scan(f, sampler=_TINY)
    except ConfigError as exc:
        return str(exc)


# decimal exponents; 250..270 puts log|g| around the 600 screening limit
_exponent = st.one_of(st.floats(250.0, 270.0), st.floats(-300.0, 300.0))


@settings(max_examples=40, deadline=None)
@given(
    terms=st.lists(
        st.tuples(_exponent, st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=10
    ),
)
def test_derived_log_matches_explicit_evaluator(terms):
    """A series map, whose log|g| is derived from the computed value, gives
    the same report as the same polynomial with an explicit log|horner|,
    including which samples the screen refuses."""
    coeffs = tuple(10.0**e * complex(math.cos(t), math.sin(t)) for e, t in terms)
    series = CoefficientSeries(coeffs)
    derived = shear_from_series(series, label="random")

    def log_abs_raw(z):
        with np.errstate(all="ignore"):
            return np.log(np.abs(_horner(coeffs, z)))

    explicit = ShearingMap(DiskFunction(
        derived.g.eval_raw, derived.g.deriv_raw, log_abs_raw, label="random"
    ))
    for scan in (starlike_scan, eq1_scan):
        assert _scan_outcome(scan, derived) == _scan_outcome(scan, explicit)


# 16 structured points; the probes add two more, so n_random = _STRADDLE
# makes 8192 distinct points
_WIDE = SamplerConfig(radius=0.95, n_radial=2, n_split=3, n_phase=2, n_random=0)
_STRADDLE = 8192 - 16 - 2


@settings(max_examples=5, deadline=None)
@given(
    shear=st.sampled_from([geometric_shear, lambda: monomial_shear(2.7), identity_shear,
                           counterexample_map]),
    n_random=st.one_of(st.integers(1, 40), st.integers(_STRADDLE - 1, _STRADDLE + 2)),
    seed=st.integers(0, 2**32),
    reuse=st.integers(0, 2**16),
    phase=st.floats(0.0, 2.0 * math.pi),
)
# 8193 distinct points, the last of them the z2 = 0 probe
@example(shear=geometric_shear, n_random=_STRADDLE + 1, seed=0, reuse=7, phase=1.0)
def test_reports_and_traces_identical_for_any_workers(shear, n_random, seed, reuse, phase):
    """Reports and trace bytes do not depend on the worker count, also when
    the plan holds about 8192 distinct points, a probe repeats a
    random z2 with its own z1, and a probe sits at z2 = 0."""
    f = shear()
    plain = dataclasses.replace(_WIDE, n_random=n_random, seed=seed)
    z2 = complex(_build_samples(plain).points[16 + reuse % n_random])
    z1 = 0.5 * math.sqrt(1.0 - abs(z2) ** 2) * complex(math.cos(phase), math.sin(phase))
    cfg = dataclasses.replace(plain, probes=((z1, z2), (0.3 + 0.1j, 0.0)))
    with tempfile.TemporaryDirectory() as tmp:
        for scan, kw in ((starlike_scan, {}), (eq1_scan, {"alphas": (0.5, 1.0)})):
            outcomes = []
            for workers in (1, 2, 3):
                path = Path(tmp) / f"w{workers}.csv"
                report = scan(f, sampler=cfg, workers=workers, trace_path=path, **kw)
                outcomes.append((report, path.read_bytes()))
            assert outcomes[0] == outcomes[1] == outcomes[2]


def test_cached_plan_keeps_probe_signed_zeros(tmp_path):
    """The sampling plan is cached without its probes, because a probe at
    z2 = -0.0 equals and hashes like one at z2 = 0.0.  Scans with either
    probe, run one after the other in both orders, give the report and
    trace bytes of fresh runs, and the cached arrays are read-only."""
    from shearmaps.geometry import _plan

    f = identity_shear()  # the probe nearest the origin is the witness

    def outcome(z2):
        cfg = dataclasses.replace(_TINY, probes=((0.01, z2),))
        result = []
        for scan in (starlike_scan, eq1_scan):
            path = tmp_path / "trace.csv"
            result.append((repr(scan(f, sampler=cfg, trace_path=path)), path.read_bytes()))
        return result

    fresh = {}
    for z2 in (0.0, -0.0):
        _plan.cache_clear()
        fresh[repr(z2)] = outcome(z2)
    assert fresh["0.0"] != fresh["-0.0"]
    for order in ((0.0, -0.0), (-0.0, 0.0)):
        _plan.cache_clear()
        for z2 in order:
            assert outcome(z2) == fresh[repr(z2)]
    plan = _build_samples(_TINY)
    assert plan is _build_samples(_TINY)
    assert not any(a.flags.writeable for a in plan)
    # the per-point table is cached with the probe-free plan alone: a plan
    # with probes builds its own, from its own points, with every call
    assert plan.table is _build_samples(_TINY).table
    for z2 in (0.0, -0.0):
        cfg = dataclasses.replace(_TINY, probes=((0.01, z2),))
        first, second = _build_samples(cfg), _build_samples(cfg)
        assert first is not second and first.table is not second.table
        assert first.table.points is first.points
        assert math.copysign(1.0, first.table.points[-1].real) == math.copysign(1.0, z2)
    assert plan.table.points is plan.points and plan.points.size < first.points.size
    # sample_count reads the cached split grid instead of rebuilding it
    assert _split_grid(_TINY.n_split) is _split_grid(_TINY.n_split)
    assert not _split_grid(_TINY.n_split).flags.writeable


@pytest.mark.parametrize("seed", range(6))
def test_subplan_keeps_samples_in_plan_order(seed):
    """A sub-plan holds the samples at the kept points in plan order, with
    each of those points once, also in plan order, and the samples' z2,
    |z1| and phase of z1 (NaN for a realigned sample) bit for bit."""
    plan = _build_samples(_PROBED)
    rng = np.random.default_rng(seed)
    need = rng.random(plan.points.size) < (0.0, 1.0, 0.01, 0.1, 0.5, 0.9)[seed]
    sub = _subplan(plan, np.flatnonzero(need))
    keep = need[plan.src]
    assert sub.points.tobytes() == plan.points[need].tobytes()
    assert sub.points[sub.src].tobytes() == plan.points[plan.src][keep].tobytes()
    assert sub.r1.tobytes() == plan.r1[keep].tobytes()
    assert sub.phi1.tobytes() == plan.phi1[keep].tobytes()


def _mask_subplan(plan, need):
    """The sub-plan by a mask over all points and a cumsum over them: the
    construction _subplan replaced, kept as its oracle."""
    keep = need[plan.src]
    remap = np.cumsum(need) - 1
    return plan.points[need], remap[plan.src[keep]], plan.r1[keep], plan.phi1[keep]


@settings(max_examples=60, deadline=None)
@given(
    n_random=st.integers(0, 30),
    seed=st.integers(0, 2**16),
    probes=st.sampled_from(["none", "origin", "repeat", "both"]),
    reuse=st.integers(0, 2**16),
    density=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    mask_seed=st.integers(0, 2**16),
)
@example(n_random=0, seed=0, probes="origin", reuse=0, density=1.0, mask_seed=0)
@example(n_random=7, seed=1, probes="both", reuse=3, density=0.0, mask_seed=0)
def test_subplan_matches_the_mask_construction(n_random, seed, probes, reuse, density,
                                                mask_seed):
    """_subplan, which reads the kept points' sample indices from the
    plan's table, gives bit for bit the arrays, order and dtypes of the
    mask-and-cumsum construction, for any mask, the empty and the full
    one included, on plans with probes at z2 = 0 and repeating a random
    z2, and without random points."""
    cfg = SamplerConfig(radius=0.95, n_radial=3, n_split=3, n_phase=2, n_random=n_random,
                        seed=seed)
    extra = []
    if probes in ("origin", "both"):
        extra += [(0.2j, 0.0), (0.1, -0.0)]
    if probes in ("repeat", "both") and n_random:
        structured = cfg.sample_count - 2 * n_random
        z2 = complex(_build_samples(cfg).points[structured + reuse % n_random])
        extra += [(0.3 * math.sqrt(1.0 - abs(z2) ** 2), z2)]
    plan = _build_samples(dataclasses.replace(cfg, probes=extra))
    need = np.random.default_rng(mask_seed).random(plan.points.size) < density
    sub = _subplan(plan, np.flatnonzero(need))
    want = _mask_subplan(plan, need)
    assert len(sub) == 4
    for got, expected in zip(sub, want):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cfg", [SamplerConfig(), _PROBED,
                                 dataclasses.replace(_PROBED, n_random=0)])
def test_per_point_table_matches_a_fresh_computation(cfg):
    """Every array of a plan's per-point table equals, byte for byte, the
    expression the screen evaluated per call before the table existed, and
    is read-only; each point's two sample indices are its first and last
    sample (the same for a point with one sample)."""
    plan = _build_samples(cfg)
    table = plan.table
    assert table is plan.table
    modulus = np.abs(plan.points)
    r1 = np.empty(plan.points.size)
    r1[plan.src] = plan.r1
    a2sq = modulus * modulus
    q = r1 * r1 + a2sq
    first = np.full(plan.points.size, -1)
    last = np.full(plan.points.size, -1)
    for i, j in enumerate(plan.src.tolist()):
        last[j] = i
        if first[j] < 0:
            first[j] = i
    fresh = {"points": plan.points, "modulus": modulus, "r1": r1, "a2sq": a2sq, "q": q,
             "node": _node(modulus), "samples": np.column_stack([first, last])}
    for name, want in fresh.items():
        got = getattr(table, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name
    assert table.qmax == q.max()


@pytest.mark.parametrize("cfg", [SamplerConfig(), _PROBED,
                                 dataclasses.replace(_PROBED, n_random=0)])
def test_samples_at_a_point_share_z1_modulus(cfg):
    """The screen decides per point, which needs every sample at a point
    to have the same |z1|: a structured sample has a point of its own, and
    a random point or probe is sampled twice with one |z1|."""
    plan = _build_samples(cfg)
    assert np.unique(plan.src).size == plan.points.size
    r1 = np.empty(plan.points.size)
    r1[plan.src] = plan.r1
    assert r1[plan.src].tobytes() == plan.r1.tobytes()


# ---------------------------------------------------------------------------
# the screen against full evaluation

_magnitude = st.one_of(st.floats(-300.0, 270.0), st.floats(-3.0, 0.5))
_coefficient = st.one_of(
    st.just(0j),
    st.builds(lambda e, p: 10.0**e * complex(math.cos(p), math.sin(p)),
              _magnitude, st.floats(0.0, 2.0 * math.pi)),
)
# a probe at z2 = 0 and one near the unit sphere
_EDGE_PROBES = ((0.3 + 0.1j, 0.0), (0.04j, 0.998 * complex(math.cos(1.0), math.sin(1.0))))


def _outcome(scan, f, cfg, **kwargs):
    try:
        return repr(scan(f, sampler=cfg, **kwargs))
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(_coefficient, min_size=1, max_size=249),
    alphas=st.sampled_from([None, (0.5, 1.0), (0.3, 0.6, 0.9), (0.999,)]),
    radius=st.floats(0.05, 0.999),
    probes=st.sampled_from([(), _EDGE_PROBES]),
    n_random=st.integers(0, 40),
)
@example(coeffs=[0j, 1.55], alphas=None, radius=0.999, probes=_EDGE_PROBES, n_random=40)
@example(coeffs=[2.6], alphas=(0.5, 1.0), radius=0.999, probes=_EDGE_PROBES, n_random=40)
@example(coeffs=[1e308 * (1 + 1j)], alphas=None, radius=0.9, probes=_EDGE_PROBES, n_random=10)
# the eq1 screen keeps 3 of 132 samples, read by the live rows 0.8 and 0.9
@example(coeffs=[2.7], alphas=None, radius=0.999, probes=_EDGE_PROBES, n_random=40)
# |w| or |c| below about 2^-1024 at the witness: realigning z1 along it
# once gave a non-finite z1 and exit 2, for both scans, traced or not
@example(coeffs=[1e-320], alphas=(0.3, 0.6, 0.9), radius=0.99, probes=(), n_random=10)
@example(coeffs=[4e-308], alphas=(0.3, 0.6, 0.9), radius=0.99, probes=(), n_random=10)
@example(coeffs=[0j, 1e-310], alphas=(0.3, 0.6, 0.9), radius=0.999, probes=(), n_random=10)
def test_screened_scans_match_full_evaluation(coeffs, alphas, radius, probes, n_random):
    """Both scans of a series map, which the coefficient majorant screens,
    report byte for byte what the same polynomial reports when wrapped as a
    coefficient-free DiskFunction, whose scans evaluate every sample:
    extremum, witness, refused count and alpha, or the same error.  A scan
    that writes a trace evaluates every sample as well and reports the
    same."""
    f = shear_from_series(CoefficientSeries(tuple(coeffs)), label="random")
    full = ShearingMap(DiskFunction(f.g.eval_raw, f.g.deriv_raw, label="random"))
    cfg = SamplerConfig(radius=radius, n_radial=4, n_split=4, n_phase=3,
                        n_random=n_random, probes=probes)
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        for scan, kw in ((starlike_scan, {}), (eq1_scan, {"alphas": alphas})):
            screened = _outcome(scan, f, cfg, **kw)
            assert screened == _outcome(scan, full, cfg, **kw)
            assert screened == _outcome(scan, f, cfg, trace_path=trace, **kw)


_CACHE_GRIDS = (None, default_alpha_grid(), (0.3, 0.6, 0.9), (0.999,))


def _grid_outcome(c, cfg, grid):
    """The starlike scan (grid None) or the eq1 scan on grid of series c."""
    f = shear_from_series(c, label="cached")
    return _outcome(starlike_scan, f, cfg) if grid is None \
        else _outcome(eq1_scan, f, cfg, alphas=grid)


def test_majorant_table_is_cached_read_only():
    """The cached majorant table of a series and an alpha grid equals a
    fresh build, bit for bit, and is read-only; scans run with the cache
    cleared before every call report what scans on a warm cache report."""
    series = (CoefficientSeries(tuple(0.5 / k**3 for k in range(2, 201))),
              CoefficientSeries(tuple(2.0**-k for k in range(2, 41))),
              CoefficientSeries((2.7,)), CoefficientSeries((0.0, 1e-310)))
    warm = {}
    for c in series:
        for grid in _CACHE_GRIDS:
            below = None if grid is None else tuple(a for a in grid if a < 1.0)
            table = _majorant_table(c, below)
            assert table is _majorant_table(c, below)
            assert not table.flags.writeable
            assert table.tobytes() == _majorant_table.__wrapped__(c, below).tobytes()
            warm[c, grid] = _grid_outcome(c, SMALL, grid)
    for c in series:
        for grid in _CACHE_GRIDS:
            _majorant_table.cache_clear()
            assert _grid_outcome(c, SMALL, grid) == warm[c, grid]


@pytest.mark.parametrize("zero", [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
def test_majorant_cache_shares_signed_zeros(zero):
    """Two series that differ only in a signed zero are equal keys, so
    they share one cached majorant table, and the second one's scans
    report what its fresh runs report."""
    plain = CoefficientSeries((0.0, 0.4, 0.0, 0.1j))
    signed = CoefficientSeries((zero, 0.4, zero, 0.1j))
    assert plain == signed and hash(plain) == hash(signed)
    fresh = {}
    for grid in _CACHE_GRIDS:
        _majorant_table.cache_clear()
        fresh[grid] = _grid_outcome(signed, _PROBED, grid)
    _majorant_table.cache_clear()
    for grid in _CACHE_GRIDS:
        _grid_outcome(plain, _PROBED, grid)
    for grid in _CACHE_GRIDS:
        assert _grid_outcome(signed, _PROBED, grid) == fresh[grid]
    info = _majorant_table.cache_info()
    assert info.currsize == info.misses == info.hits == len(_CACHE_GRIDS)


def _exp_shear(k, c, bounded=False):
    """g(z) = z^2 e^(k z + c): a closed form whose log kernels keep the
    DiskFunction promise, log|g| = 2 log|z| + k Re z + c, so that for c
    near 600 or a large k it refuses most samples, and for c = 690 every
    sample at z2 != 0 (eq1: unless another term dominates).  bounded adds
    the radial bounds log_max_abs(t) = 2 log t + |k| t + c + eta and
    deriv_log_max_abs(t) = log(2 + |k| t) + log t + |k| t + c + eta."""
    def eval_raw(z):
        return z * (z * np.exp(k * z + c))

    def deriv_raw(z):
        return (2.0 + k * z) * (z * np.exp(k * z + c))

    def log_abs_raw(z):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.abs(z)) + k * np.real(z) + c

    def deriv_log_abs_raw(z):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(2.0 + k * z)) + np.log(np.abs(z)) + k * np.real(z) + c

    def log_max_abs(t):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(t) + abs(k) * t + c + LOG_KERNEL_ETA

    def deriv_log_max_abs(t):
        with np.errstate(divide="ignore"):
            return np.log(2.0 + abs(k) * t) + np.log(t) + abs(k) * t + c + LOG_KERNEL_ETA

    return ShearingMap(DiskFunction(eval_raw, deriv_raw, log_abs_raw, deriv_log_abs_raw,
                                    log_max_abs if bounded else None,
                                    deriv_log_max_abs if bounded else None,
                                    label=f"exp({k} z + {c})"))


@settings(max_examples=60, deadline=None)
@given(
    f=st.one_of(st.just(counterexample_map()),
                st.builds(_exp_shear, st.floats(0.0, 3000.0),
                          st.sampled_from([0.0, 400.0, 590.0, 690.0]), st.booleans())),
    alphas=st.sampled_from([None, (0.5, 1.0), (0.3, 0.6, 0.9), (0.999,), (1e-150, 0.2)]),
    radius=st.one_of(st.floats(0.3, 0.9999),
                     st.sampled_from([LOG_KERNEL_RADIUS, math.nextafter(LOG_KERNEL_RADIUS, 1.0)])),
    rim_phases=st.lists(st.floats(-0.2, 0.2), max_size=3),
    beyond=st.booleans(),
    n_random=st.integers(0, 40),
    seed=st.integers(0, 2**16),
)
# the defaults at which the eq1 scan reports -inf: |z1 + c|^2 overflows
@example(f=counterexample_map(), alphas=None, radius=0.99, rim_phases=[0.1], beyond=False,
         n_random=40, seed=1729)
# beyond the promise's radius: the full plan runs
@example(f=counterexample_map(), alphas=None, radius=0.999, rim_phases=[0.0], beyond=True,
         n_random=40, seed=1729)
# every sample at z2 != 0 is refused: the same error either way
@example(f=_exp_shear(10.0, 690.0), alphas=(0.5, 1.0), radius=0.9, rim_phases=[],
         beyond=False, n_random=10, seed=0)
# the first usable point z2 != 0 is a candidate only as the coarse row's first
# usable point
@example(f=counterexample_map(), alphas=(0.999,), radius=0.95, rim_phases=[], beyond=False,
         n_random=5000, seed=1)
# many points are candidates
@example(f=counterexample_map(), alphas=(0.3, 0.6, 0.9), radius=0.5, rim_phases=[],
         beyond=False, n_random=40, seed=1729)
def test_log_screened_scans_match_full_evaluation(f, alphas, radius, rim_phases, beyond,
                                                  n_random, seed):
    """Both scans of a closed form with log kernels, which the screen
    reads, report byte for byte what a traced scan reports, which
    evaluates every sample: extremum, witness, refused count and alpha, or
    the same error.  Probes sit next to the sphere of the sampling radius
    and on the rim 1 - 2^-8 of the kernels' promise, near z2 = 1, and with
    beyond, one at 0.9999, past the rim, where the full plan runs.  The
    screen of a map with radial bounds (log_max_abs for eq1, and
    deriv_log_max_abs too for the starlike scan), which runs in two
    stages, gives the sub-plan and live flags, byte for byte, of the same
    map without them, whose screen runs the exact stage on every point."""
    rims = (0.999 * radius, LOG_KERNEL_RADIUS) + ((0.9999,) if beyond else ())
    probes = [(0.01j, rho * complex(math.cos(p), math.sin(p))) for p in rim_phases for rho in rims]
    cfg = SamplerConfig(radius=radius, n_radial=4, n_split=4, n_phase=3, n_random=n_random,
                        seed=seed, probes=probes)
    plan = _build_samples(cfg)
    bare = ShearingMap(dataclasses.replace(f.g, log_max_abs=None, deriv_log_max_abs=None))
    with np.errstate(all="ignore"):
        (sub, live), (want, want_live) = (_screen(m, plan, alphas, None) for m in (f, bare))
    assert live == want_live
    assert [a.tobytes() for a in sub] == [a.tobytes() for a in want]
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        for scan, kw in ((starlike_scan, {}), (eq1_scan, {"alphas": alphas})):
            assert _outcome(scan, f, cfg, **kw) == _outcome(scan, f, cfg, trace_path=trace, **kw)


@settings(max_examples=60, deadline=None)
@given(
    f=st.one_of(st.just(counterexample_map()),
                st.builds(_exp_shear, st.floats(0.0, 3000.0),
                          st.sampled_from([0.0, 400.0, 590.0, 690.0]), st.just(True))),
    below=st.sampled_from([None, (0.5,), (0.3, 0.6, 0.9), (0.999,), (1e-150, 0.2)]),
    moduli=st.lists(st.floats(0.0, LOG_KERNEL_RADIUS), min_size=1, max_size=40),
    seed=st.integers(0, 2**16),
)
def test_coarse_row_bounds_every_exact_row(f, below, moduli, seed):
    """The lemma both stages of a screen rest on: at every point of
    modulus at most LOG_KERNEL_RADIUS and in the starlike row (below None)
    or every row alpha < 1, the coarse row of _radial_bounds has U at least
    and L at most what _log_bounds gives, and it refuses (U inf, L NaN)
    every point that _log_bounds refuses or certifies in some row.  The
    starlike coarse row holds one column per node, read through column."""
    phases = np.random.default_rng(seed).uniform(-0.3, 0.3, len(moduli) + 1)
    pts = np.append(moduli, LOG_KERNEL_RADIUS) * np.exp(1j * phases)
    pts = pts[np.abs(pts) <= LOG_KERNEL_RADIUS]
    with np.errstate(all="ignore"):
        coarse = _radial_bounds(f.g, pts, _node(np.abs(pts)), below)
        exact = _log_bounds(f.g, pts, np.abs(pts), below)
    upper, lower = coarse.upper[0, coarse.column], coarse.lower[0, coarse.column]
    assert upper.shape == lower.shape == pts.shape
    assert (upper >= exact.upper).all()
    assert not (lower > exact.lower).any()
    decided = (exact.upper < math.inf).all(axis=0)
    assert (upper[~decided] == math.inf).all() and np.isnan(lower[~decided]).all()


@pytest.mark.parametrize("n", [1, 5000, 8191, 8192, 9608, 16383, 16384, 20000])
def test_alpha_rows_match_one_kernel_call_per_row(n):
    """_by_rows gives, bit for bit, what one kernel call per row gives when
    each call holds at most 8,191 points, for z2 itself and for one and
    three rows of alphas, and for a kernel with complex products of
    temporaries, z (z e^(k z + c)), and a series' Horner.  From 16,384
    complex points (256 KiB) on numpy evaluates temporaries in place,
    which can round such a product differently, so a row of 16,384 or
    more points evaluated in one call would differ."""
    rng = np.random.default_rng(n)
    pts = 0.95 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    series = shear_from_series(CoefficientSeries(tuple(0.5 / k**3 for k in range(2, 30))))
    for g in (_exp_shear(0.0, 400.0).g, _exp_shear(10.0, 0.0).g, series.g):
        for alphas in (None, [0.6], [0.3, 0.6, 0.9]):
            with np.errstate(all="ignore"):
                a = None if alphas is None else np.asarray(alphas)[:, None]
                (rows,) = _by_rows(lambda z: (g.eval_raw(z),), pts, a)
                want = [np.concatenate([g.eval_raw(z[j:j + 8191]) for j in range(0, n, 8191)])
                        for z in ([pts] if a is None else [x * pts for x in alphas])]
            assert rows.tobytes() == (want[0] if a is None else np.stack(want)).tobytes()


@pytest.mark.parametrize("f, n_random, alphas", [
    (counterexample_map(), 20000, None),
    (_exp_shear(3000.0, 0.0), 12000, (0.5, 0.9, 1.0)),
], ids=["builtin-starlike", "exp3000-eq1"])
def test_large_plans_report_the_same_traced(f, n_random, alphas, tmp_path):
    """Past 16,384 points of the default sampler a traced scan, which
    evaluates the full plan, reports what the screened scan reports on its
    sub-plan of a few points, byte for byte: each kernel call holds fewer
    than 8,192 points however large the plan (_by_rows)."""
    cfg = SamplerConfig(n_random=n_random)
    assert _build_samples(cfg).points.size > 16384
    scan, kw = (starlike_scan, {}) if alphas is None else (eq1_scan, {"alphas": alphas})
    assert _outcome(scan, f, cfg, **kw) == _outcome(scan, f, cfg, trace_path=tmp_path / "t.csv",
                                                    **kw)


def test_kernel_calls_hold_fewer_than_8192_points(tmp_path):
    """Every kernel call of both scans holds fewer than 8,192 points
    where the full plan of 24,992 points runs: for the
    builtin map traced and past the log kernels' promise radius, and for a
    coefficient-free polynomial, which no screen covers."""
    largest = {}

    def bounded(name, fn):
        def kernel(z):
            largest[name] = max(largest.get(name, 0), np.size(z))
            return fn(z)
        return kernel

    poly = shear_from_series(CoefficientSeries((2.7,))).g
    for g, radius, trace in ((counterexample_map().g, 0.99, tmp_path / "trace.csv"),
                             (counterexample_map().g, 0.999, None),
                             (DiskFunction(poly.eval_raw, poly.deriv_raw), 0.99, None)):
        f = ShearingMap(dataclasses.replace(
            g, **{k: bounded(k, getattr(g, k)) for k in KERNELS if getattr(g, k) is not None}))
        cfg = SamplerConfig(radius=radius, n_random=20000)
        starlike_scan(f, sampler=cfg, trace_path=trace)
        eq1_scan(f, alphas=(0.5, 0.9, 1.0), sampler=cfg, trace_path=trace)
    assert set(largest) == set(KERNELS)
    assert max(largest.values()) == 8191


def test_eq1_overflow_is_negative_without_a_certificate():
    """The default eq1 scan of the builtin map reports -inf with nothing
    refused or certified: at its witness both logs lie within the screening
    limit (log|g(z2)| is about 465.6), yet |z1 + c|^2 overflows, so the
    residual 1/a^2 - inf is -inf.  eq1_residual refuses that point with a
    message that says so."""
    f = counterexample_map()
    report = eq1_scan(f)
    assert report.extremum == -math.inf and report.refused == 0
    z2, a = report.witness.z2, report.alpha
    log_g = float(f.g.log_abs_raw(z2))
    assert 465.0 < log_g < 466.0
    assert float(f.g.log_abs_raw(a * z2)) - math.log(a) <= SCAN_LOG_LIMIT
    with pytest.raises(OverflowRefusalError, match="overflows") as info:
        eq1_residual(f, a, report.witness)
    assert "log-domain" not in str(info.value)


def test_screen_keeps_a_sample_that_depends_on_g(tmp_path):
    """e^(10 z + 690) z^2 refuses every sample at z2 != 0 except a probe at
    z2 = 1e-160 with |z1| = 0.9, whose value lies far above the minimum at
    z2 = 0.  The screen keeps that probe anyway, so a scan decides whether
    every sample whose value depends on g was refused as the traced scan
    does, over the full plan: both report."""
    f = _exp_shear(10.0, 690.0)
    cfg = dataclasses.replace(_TINY, probes=((0.9, 1e-160),))
    for scan in (starlike_scan, eq1_scan):
        screened = _outcome(scan, f, cfg)
        assert screened.startswith("ScanReport(")
        assert screened == _outcome(scan, f, cfg, trace_path=tmp_path / "trace.csv")
