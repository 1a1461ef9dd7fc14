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
    monomial_shear,
    random_ball_points,
)
from shearmaps import (
    BallPoint,
    CoefficientSeries,
    ConfigError,
    DiskFunction,
    DomainError,
    SamplerConfig,
    ShearingMap,
    boundedness_scan,
    counterexample_map,
    default_alpha_grid,
    disk_function_from_callables,
    eq1_residual,
    eq1_scan,
    identity_shear,
    shear_from_series,
    starlike_quantity,
    starlike_scan,
)
from shearmaps.geometry import _build_samples
from shearmaps.series import _BLOCK, _horner, re_inner

# peak of s^2 - |a2| c s^3 analysis: the sphere minimum of the starlike
# quantity for g = a2 z^2 sits at |z2|^2 = (2/3) s^2 with value
# s^2 - |a2| * (2 / (3 sqrt 3)) * s^3
MONOMIAL_SLOPE = 2.0 / (3.0 * math.sqrt(3.0))

SMALL = SamplerConfig(radius=0.9, n_radial=6, n_split=7, n_phase=4, n_random=300)


def generic_starlike_quantity(f, p):
    """Independent route: Re<[df(z)]^-1 f(z), z> via a numpy linear solve."""
    j = np.array(f.jacobian(p).as_rows(), dtype=complex)
    u = np.linalg.solve(j, np.array(f.eval(p), dtype=complex))
    return re_inner((complex(u[0]), complex(u[1])), p)


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
    from shearmaps import identity_shear

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
    from shearmaps import identity_shear

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


def test_default_alpha_grid():
    grid = default_alpha_grid()
    assert len(grid) == 10
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
# boundedness scan


def test_boundedness_scan_monomial_closed_form():
    g = monomial_shear(2.7).g
    for r in (0.3, 0.6, 0.9):
        got = boundedness_scan(g, r, n_angular=64)
        np.testing.assert_allclose(got, math.log(2.7 * r * r), rtol=1e-12)


def test_boundedness_scan_identity_is_minus_inf():
    from shearmaps import identity_shear

    assert boundedness_scan(identity_shear().g, 0.5, n_angular=16) == -math.inf


def test_boundedness_scan_includes_probe_angles():
    ce = counterexample_map()
    base = boundedness_scan(ce.g, 0.9, n_angular=8)
    spiked = boundedness_scan(ce.g, 0.9, angles=(0.0,), n_angular=8)
    assert spiked >= base


def test_boundedness_scan_validation():
    g = geometric_shear().g
    with pytest.raises(DomainError):
        boundedness_scan(g, 1.0)
    with pytest.raises(DomainError):
        boundedness_scan(g, 0.0)


# ---------------------------------------------------------------------------
# kernel evaluations per sample

# two probes at z2 = 0 (also a structured z2), two sharing z2 = 0.5i
_PROBED = dataclasses.replace(
    SMALL, probes=((0.1, 0.0), (0.2j, 0.0), (0.0, 0.3), (0.3j, 0.5j), (0.1, 0.5j))
)


def test_scans_evaluate_each_point_once():
    """Kernels see each distinct z2 of the plan once: the structured grid,
    each random z2 and each probe z2 (a random point and a probe enter the
    plan twice, with z1 as given and realigned, but share one z2).  A series
    map derives log|g| from the value it computed: the starlike scan costs
    g and g' once per point, the eq1 scan g(z2) once plus g(a z2) once per
    alpha < 1, and neither calls a log evaluator.  The closed-form
    counterexample still screens with both of its own."""
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
        assert counts == {"eval_raw": points + 1, "deriv_raw": points + 1}
        counts.clear()
        report = eq1_scan(f, alphas=alphas, sampler=cfg)
        assert counts == {"eval_raw": eq1_count(report)}

        f, counts = counted_shear(counterexample_map())
        starlike_scan(f, sampler=cfg)
        assert counts == dict.fromkeys(KERNELS, points + 1)
        counts.clear()
        report = eq1_scan(f, alphas=alphas, sampler=cfg)
        assert counts == dict.fromkeys(("eval_raw", "log_abs_raw"), eq1_count(report))


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

    explicit = ShearingMap(disk_function_from_callables(
        derived.g.eval_raw, derived.g.deriv_raw, log_abs_raw, label="random"
    ))
    for scan in (starlike_scan, eq1_scan):
        assert _scan_outcome(scan, derived) == _scan_outcome(scan, explicit)


# 16 structured points; the probes add two more
_WIDE = SamplerConfig(radius=0.95, n_radial=2, n_split=3, n_phase=2, n_random=0)
_STRADDLE = _BLOCK - 16 - 2


@settings(max_examples=5, deadline=None)
@given(
    shear=st.sampled_from([geometric_shear, lambda: monomial_shear(2.7), identity_shear,
                           counterexample_map]),
    n_random=st.one_of(st.integers(1, 40), st.integers(_STRADDLE - 1, _STRADDLE + 2)),
    seed=st.integers(0, 2**32),
    reuse=st.integers(0, 2**16),
    phase=st.floats(0.0, 2.0 * math.pi),
)
# one point past the first Horner block, which leaves the z2 = 0 probe to
# the second
@example(shear=geometric_shear, n_random=_STRADDLE + 1, seed=0, reuse=7, phase=1.0)
def test_reports_and_traces_identical_for_any_workers(shear, n_random, seed, reuse, phase):
    """Reports and trace bytes do not depend on the worker count, also when
    the distinct points straddle a Horner block boundary, a probe repeats a
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
