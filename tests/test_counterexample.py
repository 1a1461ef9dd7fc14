import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shearmaps.counterexample
from shearmaps import (
    ConfigError,
    DivergenceRecord,
    DomainError,
    OverflowRefusalError,
    ce_lower_bound,
    counterexample_disk_function,
    counterexample_map,
    divergence_scan,
    radial_image_bound,
    shear_opnorm,
    simplified_lower_bound,
    unit_modulus_check,
)
from shearmaps.counterexample import (
    DEFAULT_R_GRID,
    VERDICT_AFFIRMATIVE,
    VERDICT_INSUFFICIENT_GRID,
)
from shearmaps.geometry import SCAN_LOG_LIMIT
from shearmaps.series import LOG_KERNEL_ETA, LOG_KERNEL_RADIUS


def test_unit_modulus_on_real_axis():
    """g(r)/r^2 = exp(i/(1-r)^3) has modulus exactly 1 for real r: the
    whole angular factor is a pure phase there."""
    rs = [0.1 * k for k in range(1, 10)]
    assert unit_modulus_check(rs) <= 1e-12
    g = counterexample_disk_function()
    for r in rs:
        assert abs(abs(g.eval_raw(r)) / r**2 - 1.0) <= 1e-12


def test_evaluator_log_consistency():
    g = counterexample_disk_function()
    rng = np.random.default_rng(51)
    z = 0.8 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    la = g.log_abs_raw(z)
    direct = np.log(np.abs(g.eval_raw(z)))
    np.testing.assert_allclose(la, direct, rtol=1e-12, atol=1e-10)


def test_deriv_log_consistency():
    g = counterexample_disk_function()
    rng = np.random.default_rng(52)
    z = 0.7 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
    la = g.deriv_log_abs_raw(z)
    direct = np.log(np.abs(g.deriv_raw(z)))
    np.testing.assert_allclose(la, direct, rtol=1e-12, atol=1e-10)


def test_deriv_matches_finite_difference():
    g = counterexample_disk_function()
    rng = np.random.default_rng(53)
    h = 1e-7
    for _ in range(60):
        z = complex(*rng.uniform(-0.42, 0.42, 2))
        fd = (g.eval_raw(z + h) - g.eval_raw(z - h)) / (2 * h)
        np.testing.assert_allclose(g.deriv_raw(z), fd, rtol=2e-6, atol=1e-10)


def test_normalization_of_builtin():
    g = counterexample_disk_function()
    assert g.eval_raw(0.0j) == 0.0
    assert g.deriv_raw(0.0j) == 0.0
    assert g.coefficients is None
    assert g.label == "counterexample"


def _bits(value):
    return struct.pack("<2d", value.real, value.imag)


@settings(max_examples=300, deadline=None)
@given(z=st.one_of(
    st.builds(cmath.rect, st.floats(0.0, 1.0 - 1e-12), st.floats(-math.pi, math.pi)),
    # 1 - z near 0.11 e^(i pi/6) puts the exponent's real part near 709
    st.builds(lambda rho, theta: 1.0 - cmath.rect(rho, theta),
              st.floats(1e-6, 0.3), st.floats(-1.5, 1.5)),
).filter(lambda z: abs(z) <= 1.0 - 1e-12))
@example(z=0j)
@example(z=complex(-0.0, 0.0))
@example(z=complex(0.0, -0.0))
@example(z=complex(-0.0, -0.0))
@example(z=0.9028752509655752 - 0.05607499999999999j)  # exponent 708.93: cmath.exp rescales
@example(z=0.9034381674780351 - 0.055749999999999994j)  # exponent 721.4: cmath.exp raises
def test_builtin_scalar_kernels_give_numpy_bits(z):
    """The builtin's eval_raw and deriv_raw evaluate a Python complex with
    cmath, and give the bits of their numpy expressions: both parts and the
    sign of every zero, and the same inf and NaN where the exponent
    overflows."""
    g = counterexample_disk_function()
    with np.errstate(all="ignore"):
        want = [z * z * np.exp(1j / (1.0 - z) ** 3),
                (2.0 * z + 3j * z * z / (1.0 - z) ** 4) * np.exp(1j / (1.0 - z) ** 3)]
        got = [g.eval_raw(z), g.deriv_raw(z)]
    assert list(map(_bits, got)) == list(map(_bits, want))


def test_deriv_refused_past_double_range():
    """Near the boundary point 1 the closed form's log|g'| passes the
    refusal threshold, so plain evaluation raises instead of overflowing."""
    with pytest.raises(OverflowRefusalError):
        counterexample_map().g.deriv(1 - 0.1 * cmath.exp(1j * math.pi / 6))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: unit_modulus_check(()), ConfigError),
        (lambda: unit_modulus_check((1.0,)), DomainError),
        (lambda: radial_image_bound(1.0), DomainError),
    ],
    ids=["empty-grid", "radius-one", "image-at-one"],
)
def test_radial_functions_refuse_bad_radii(call, error):
    with pytest.raises(error):
        call()


def test_lower_bound_values_and_domain():
    np.testing.assert_allclose(ce_lower_bound(0.9), 24297.2, rtol=1e-12)
    for bad in (0.5, 1.0, 0.2):
        with pytest.raises(DomainError):
            ce_lower_bound(bad)
        with pytest.raises(DomainError):
            simplified_lower_bound(bad)


def test_bound_ordering_on_grid():
    f = counterexample_map()
    for r in np.linspace(0.55, 0.99, 23):
        simple = simplified_lower_bound(r)
        strict = ce_lower_bound(r)
        op = shear_opnorm(f, (0.0j, r))
        assert simple <= strict <= op


def test_divergence_ratio_oracles():
    at_09, at_099 = divergence_scan((0.9, 0.99)).records
    np.testing.assert_allclose(at_09.ratio, 24.3, atol=1e-3)
    np.testing.assert_allclose(at_099.ratio, 294.03, atol=5e-2)


def test_divergence_ratio_strictly_increasing_past_half():
    ratios = [rec.ratio for rec in divergence_scan(np.linspace(0.55, 0.99, 12)).records]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_radial_image_bound_closed_form():
    """f(0, r) = (g(r), r) with |g(r)| = r^2, so the image norm is
    r sqrt(1 + r^2) -- uniformly below sqrt(2), i.e. the image of the radial
    segment stays bounded even though df blows up."""
    for r in np.linspace(0.05, 0.99, 30):
        got = radial_image_bound(r)
        np.testing.assert_allclose(got, r * math.sqrt(1.0 + r * r), rtol=1e-12)
        assert got < math.sqrt(2.0)
    np.testing.assert_allclose(radial_image_bound(0.9), 1.210826164236634, rtol=1e-12)


def test_divergence_scan_affirmative_by_default():
    scan = divergence_scan()
    assert scan.affirmative
    assert scan.verdict == VERDICT_AFFIRMATIVE
    assert scan.c_report == 10.0
    assert [rec.r for rec in scan.records] == list(DEFAULT_R_GRID)
    ratios = [rec.ratio for rec in scan.records]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 4.0 * 10.0
    for rec in scan.records:
        assert rec.opnorm >= rec.lower_bound >= rec.simplified_bound
        assert rec.ceiling == 4.0


def test_divergence_scan_single_point_withholds():
    scan = divergence_scan((0.9,))
    assert not scan.affirmative
    assert scan.verdict == VERDICT_INSUFFICIENT_GRID


def test_divergence_scan_unreachable_constant():
    scan = divergence_scan((0.6, 0.9), c_report=1e9)
    assert not scan.affirmative
    assert "does not exceed" in scan.verdict


def test_divergence_scan_not_monotone(monkeypatch):
    """A ratio that decreases along the grid withholds the verdict.  The
    stand-in norm 1e6/(1-r)^2 stays above the certified lower bound on the
    default grid, while its ratio 1e6 (1-r) falls."""
    monkeypatch.setattr(
        shearmaps.counterexample, "shear_opnorm", lambda f, p: 1e6 / (1.0 - p[1]) ** 2
    )
    scan = divergence_scan()
    assert not scan.affirmative
    assert scan.verdict == "not affirmative: ratio is not monotone increasing over this grid"


def test_divergence_scan_validation():
    with pytest.raises(ConfigError):
        divergence_scan(())
    with pytest.raises(ConfigError):
        divergence_scan((0.9, 0.6))  # not increasing
    with pytest.raises(ConfigError):
        divergence_scan((0.4, 0.9))  # leaves (1/2, 1)
    with pytest.raises(ConfigError):
        divergence_scan((0.6, 0.9), c_report=0.5)


def test_divergence_record_rejects_inconsistent_bound():
    with pytest.raises(DomainError):
        DivergenceRecord(r=0.9, opnorm=10.0, lower_bound=24297.2,
                         simplified_bound=16200.0, ratio=0.01)


@settings(max_examples=200, deadline=None)
@given(
    r=st.one_of(
        st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
        # distances 1e-15 .. 0.3 from 1 on a log scale
        st.floats(-15.0, -0.5).map(lambda e: 1.0 - 10.0**e),
        # the nine doubles below 1 within 1e-15 of it
        st.integers(1, 9).map(lambda k: 1.0 - k * 2.0**-53),
    )
)
# the rounded norm falls 2 ulps short of the rounded lower bound here
@example(r=0.9999969930989308)
def test_divergence_scan_accepts_every_radius(r):
    """Near r = 1 the exact norm exceeds the exact lower bound by less than
    the rounding of either, so every radius of (1/2, 1) must pass the
    record's check with its slack."""
    scan = divergence_scan(sorted({0.6, r}))
    assert all(rec.opnorm >= rec.simplified_bound for rec in scan.records)


def _contract_points(rng, n):
    """Points of |z| <= LOG_KERNEL_RADIUS = 1 - 2^-8: uniform on the disk,
    on the rim next to z = 1 (where |1-z|^-3 nears 2^24), and down to
    |z| = 1e-300."""
    rim = LOG_KERNEL_RADIUS
    r = np.concatenate([rim * np.sqrt(rng.random(n)), rim * (1.0 - 1e-3 * rng.random(n)),
                        10.0 ** rng.uniform(-300.0, -1.0, n)])
    phase = np.concatenate([2.0 * np.pi * rng.random(n), rng.normal(0.0, 0.02, n),
                            2.0 * np.pi * rng.random(n)])
    z = r * np.exp(1j * phase)
    return z[np.abs(z) <= rim]


@pytest.mark.parametrize("seed", range(3))
def test_log_kernels_keep_their_promise(seed):
    """The builtin's log kernels keep the DiskFunction promise the scans'
    screen relies on: on |z| <= LOG_KERNEL_RADIUS, wherever the log is at
    most SCAN_LOG_LIMIT, log_abs_raw and deriv_log_abs_raw lie within
    LOG_KERNEL_ETA of log|g| and log|g'| at 50 digits (mpmath), and
    |eval_raw| and |deriv_raw| lie within e^(+-eta) of their exponentials,
    up to 2^-1000 absolute."""
    mpmath = pytest.importorskip("mpmath")
    g = counterexample_disk_function()
    z = _contract_points(np.random.default_rng(seed), 300)
    with np.errstate(all="ignore"):
        logs = (g.log_abs_raw(z), g.deriv_log_abs_raw(z))
        values = (g.eval_raw(z), g.deriv_raw(z))
    eta = LOG_KERNEL_ETA
    checked = 0
    with mpmath.workdps(50):
        for j, zj in enumerate(z):
            w = mpmath.mpc(zj.real, zj.imag)
            decay = (1 / (1 - w) ** 3).imag
            exact = (2 * mpmath.log(abs(w)) - decay,
                     mpmath.log(abs(2 * w + 3j * w * w / (1 - w) ** 4)) - decay)
            for log, value, want in zip(logs, values, exact):
                if log[j] > SCAN_LOG_LIMIT:
                    continue
                checked += 1
                assert abs(log[j] - want) <= eta
                assert math.exp(log[j] - eta) - 2.0**-1000 <= abs(value[j])
                assert abs(value[j]) <= math.exp(log[j] + eta) + 2.0**-1000
    assert checked >= z.size


@pytest.mark.parametrize("seed", range(3))
def test_radial_log_bound_keeps_its_promise(seed):
    """log_max_abs(t) = 2 log t + (1-t)^-3 + eta keeps the DiskFunction
    promise: log_abs_raw(z) <= log_max_abs(|z|) at points of
    |z| <= LOG_KERNEL_RADIUS (uniform, on the rim next to z = 1, down to
    |z| = 1e-300, and on the ray arg(1-z) = pi/6, where -Im(1/(1-z)^3) =
    |1-z|^-3 is largest), and log_max_abs is nondecreasing.  At 50 digits
    (mpmath) the exact log|g| stays below the exact 2 log t + (1-t)^-3, and
    the computed bound and log_abs_raw each lie within 2^-26 of their
    exact values, so eta covers both roundings."""
    mpmath = pytest.importorskip("mpmath")
    g = counterexample_disk_function()
    rng = np.random.default_rng(100 + seed)
    rho = (1.0 - LOG_KERNEL_RADIUS) * 10.0 ** rng.uniform(0.0, 2.0, 200)
    ray = 1.0 - rho * np.exp(1j * np.pi / 6.0)
    z = np.concatenate([_contract_points(rng, 300), ray[np.abs(ray) <= LOG_KERNEL_RADIUS]])
    t = np.abs(z)
    with np.errstate(all="ignore"):
        logs, bounds = g.log_abs_raw(z), g.log_max_abs(t)
    assert (logs <= bounds).all()
    ts = np.sort(np.concatenate([t, np.nextafter(t, 0.0), [0.0, LOG_KERNEL_RADIUS]]))
    with np.errstate(divide="ignore"):
        assert (np.diff(g.log_max_abs(ts)) >= 0.0).all()
    with mpmath.workdps(50):
        for zj, tj, log, bound in zip(z, t, logs, bounds):
            w = mpmath.mpc(zj.real, zj.imag)
            exact = 2 * mpmath.log(abs(w)) - (1 / (1 - w) ** 3).imag
            exact_bound = 2 * mpmath.log(tj) + 1 / (1 - mpmath.mpf(tj)) ** 3
            assert exact <= exact_bound
            assert abs(log - exact) <= 2.0**-26
            assert abs(bound - LOG_KERNEL_ETA - exact_bound) <= 2.0**-26


@pytest.mark.parametrize("seed", range(3))
def test_radial_deriv_log_bound_keeps_its_promise(seed):
    """deriv_log_max_abs(t) = log(2t + 3t^2/(1-t)^4) + (1-t)^-3 + eta keeps
    the DiskFunction promise: deriv_log_abs_raw(z) <= deriv_log_max_abs(|z|)
    at the points of test_radial_log_bound_keeps_its_promise, and
    deriv_log_max_abs is nondecreasing.  At 50 digits (mpmath) the exact
    log|g'| stays below the exact log(2t + 3t^2/(1-t)^4) + (1-t)^-3, the
    computed bound lies within 2^-26 of its exact value, and
    deriv_log_abs_raw at most 2^-26 above the exact bound, so eta covers
    both roundings."""
    mpmath = pytest.importorskip("mpmath")
    g = counterexample_disk_function()
    rng = np.random.default_rng(100 + seed)
    rho = (1.0 - LOG_KERNEL_RADIUS) * 10.0 ** rng.uniform(0.0, 2.0, 200)
    ray = 1.0 - rho * np.exp(1j * np.pi / 6.0)
    z = np.concatenate([_contract_points(rng, 300), ray[np.abs(ray) <= LOG_KERNEL_RADIUS]])
    t = np.abs(z)
    with np.errstate(all="ignore"):
        logs, bounds = g.deriv_log_abs_raw(z), g.deriv_log_max_abs(t)
    assert (logs <= bounds).all()
    ts = np.sort(np.concatenate([t, np.nextafter(t, 0.0), [0.0, LOG_KERNEL_RADIUS]]))
    with np.errstate(divide="ignore"):
        assert (np.diff(g.deriv_log_max_abs(ts)) >= 0.0).all()
    with mpmath.workdps(50):
        for zj, tj, log, bound in zip(z, t, logs, bounds):
            w = mpmath.mpc(zj.real, zj.imag)
            exact = mpmath.log(abs(2 * w + 3j * w * w / (1 - w) ** 4)) - (1 / (1 - w) ** 3).imag
            s = mpmath.mpf(tj)
            exact_bound = mpmath.log(2 * s + 3 * s * s / (1 - s) ** 4) + 1 / (1 - s) ** 3
            assert exact <= exact_bound
            assert log - exact_bound <= 2.0**-26
            assert abs(bound - LOG_KERNEL_ETA - exact_bound) <= 2.0**-26
