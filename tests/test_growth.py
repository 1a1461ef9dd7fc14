import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shearmaps
from conftest import (
    bounded_nine_term_shear,
    counted_shear,
    geometric_deriv,
    geometric_shear,
    heavy_nine_term_shear,
    identity_shear,
    monomial_shear,
    random_ball_points,
)
from shearmaps import (
    STARLIKE_SUM_LIMIT,
    CoefficientSeries,
    ConfigError,
    DomainError,
    UncertifiedMapError,
    counterexample_map,
    growth_conformance_scan,
    s0_growth_bound,
    shear_from_series,
    shear_opnorm,
    starlike_certificate,
    unipotent_opnorm,
)
from shearmaps.growth import CONFORMANCE_TOLERANCE, GrowthRecord, _screen_slack
from shearmaps.series import circle_values

GOLDEN_RATIO_NORM = (1.0 + math.sqrt(5.0)) / 2.0


def test_unipotent_golden_values():
    assert abs(unipotent_opnorm(1.0) - GOLDEN_RATIO_NORM) < 1e-15
    assert abs(unipotent_opnorm(3.0) - (3.0 + math.sqrt(13.0)) / 2.0) < 1e-15
    assert unipotent_opnorm(0.0) == 1.0
    assert unipotent_opnorm(-2.0) == unipotent_opnorm(2.0)
    # stays finite where m*m would overflow
    np.testing.assert_allclose(unipotent_opnorm(1e200), 1e200, rtol=1e-15)


def test_unipotent_consistent_with_general_form():
    for m in (0.0, 0.25, 1.0, 7.5, 1e4):
        np.testing.assert_allclose(
            unipotent_opnorm(m), np.linalg.norm(np.array([[1.0, m], [0.0, 1.0]]), 2),
            rtol=1e-14,
        )


def test_shear_opnorm_matches_jacobian_route():
    f = geometric_shear()
    rng = np.random.default_rng(43)
    for p in random_ball_points(rng, 100):
        jacobian = np.array([[1.0, f.g.deriv(p.z2)], [0.0, 1.0]])
        np.testing.assert_allclose(
            shear_opnorm(f, p), np.linalg.norm(jacobian, 2), rtol=1e-13
        )


def test_growth_bound_oracle_values():
    np.testing.assert_allclose(s0_growth_bound(0.5), 23.313708498984763, rtol=1e-15)
    np.testing.assert_allclose(s0_growth_bound(0.9), 3797.366596101028, rtol=1e-14)
    assert s0_growth_bound(0.0) == 1.0
    for bad in (1.0, -0.1, 2.0):
        with pytest.raises(DomainError):
            s0_growth_bound(bad)


def test_schwarz_pick_specializes_to_growth_bound():
    """The Schwarz-Pick estimate 1/((1-rho)^2 (1-|zeta|^2)) at
    rho = |zeta| = sqrt(r) is the ceiling."""
    for r in np.linspace(0.02, 0.9, 20):
        s = math.sqrt(r)
        np.testing.assert_allclose(
            1.0 / ((1.0 - s) ** 2 * (1.0 - s * s)), s0_growth_bound(r), rtol=1e-12
        )


def test_conformance_scan_monomial_exact_sup():
    """For g = a z^2 the derivative has modulus 2|a|r on the whole circle
    |z2| = r, so every circle sample hits the sup exactly."""
    f = monomial_shear(0.5)
    radii = (0.2, 0.5, 0.8)
    records = growth_conformance_scan(f, radii, n_angular=32)
    for rec, r in zip(records, radii):
        np.testing.assert_allclose(rec.sup_norm, unipotent_opnorm(1.0 * r), rtol=1e-12)
        assert rec.bound == s0_growth_bound(r)
        assert rec.conforms
    sups = [rec.sup_norm for rec in records]
    assert sups == sorted(sups)


def test_conformance_scan_accepts_all_certified_fixtures():
    radii = (0.3, 0.6, 0.9)
    for f in (identity_shear(), geometric_shear(), bounded_nine_term_shear()):
        records = growth_conformance_scan(f, radii, n_angular=64)
        assert all(rec.conforms for rec in records)


def test_conformance_scan_refuses_uncertified_maps():
    with pytest.raises(UncertifiedMapError):
        growth_conformance_scan(monomial_shear(2.7), (0.5,))
    with pytest.raises(UncertifiedMapError):
        growth_conformance_scan(heavy_nine_term_shear(), (0.5,))
    with pytest.raises(UncertifiedMapError):
        growth_conformance_scan(counterexample_map(), (0.5,))


def test_conformance_scan_validation():
    f = monomial_shear(0.5)
    with pytest.raises(ConfigError):
        growth_conformance_scan(f, ())
    with pytest.raises(DomainError):
        growth_conformance_scan(f, (0.5, 1.0))
    with pytest.raises(ConfigError):
        growth_conformance_scan(f, (0.5,), n_angular=0)


def test_conformance_scan_workers_agree():
    f = geometric_shear()
    radii = tuple(np.linspace(0.1, 0.9, 5))
    a = growth_conformance_scan(f, radii, n_angular=64, workers=1)
    b = growth_conformance_scan(f, radii, n_angular=64, workers=4)
    assert a == b


def test_conformance_scan_geometric_closed_form():
    """The geometric coefficients are nonnegative, so max |g'| on |z2| <= r
    sits at z2 = r, which is the angle-0 circle sample."""
    radii = tuple(np.linspace(0.1, 0.9, 9))
    for rec in growth_conformance_scan(geometric_shear(), radii):
        expected = unipotent_opnorm(abs(geometric_deriv(rec.r)))
        np.testing.assert_allclose(rec.sup_norm, expected, rtol=1e-10)


_unit_phase = st.floats(0.0, 2.0 * math.pi)


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(st.tuples(st.floats(0.0, 1.0), _unit_phase), min_size=1, max_size=12),
    fill=st.floats(0.0, 0.999),
    radii=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
    interior=st.lists(st.tuples(st.floats(0.0, 0.98), _unit_phase), min_size=1, max_size=8),
)
def test_circle_sup_dominates_interior(terms, fill, radii, interior):
    """Maximum modulus: the circle sup bounds ||df|| at interior points,
    drawn ones plus a dense ring, all within |zeta| <= 0.98 r.  There
    g'(0) = 0 gives |g'(zeta)| <= 0.98 max_{|z|=r} |g'| (Schwarz), and g' has
    degree <= 12, so Bernstein's inequality puts the 2048-point circle max
    within a factor 1 - 12 pi/2048 > 0.98 of the true max."""
    s2 = sum((k - 1) * w for k, (w, _) in enumerate(terms, start=2)) or 1.0
    coeffs = tuple(fill * STARLIKE_SUM_LIMIT * (w / s2) * cmath.exp(1j * t) for w, t in terms)
    f = shear_from_series(CoefficientSeries(coeffs), label="random")
    assert starlike_certificate(f).certified
    drawn = [frac * cmath.exp(1j * phase) for frac, phase in interior]
    ring = 0.98 * np.exp(2j * math.pi * np.arange(4096) / 4096)
    points = np.concatenate([drawn, ring])
    for rec in growth_conformance_scan(f, radii):
        inner = unipotent_opnorm(np.max(np.abs(f.g.deriv_raw(rec.r * points))))
        assert rec.sup_norm >= inner * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# the FFT screen: exact records, a sound slack, few Horner points


def random_certified_shear(degree, seed, kind="complex", fill=0.9, scale=1.0):
    """A starlike-certified shear with stored coefficients a_2..a_degree:
    random complex, random real (signs only), or a monomial a_degree z^degree
    (|g'| constant on every circle); degree 1 is the identity map."""
    rng = np.random.default_rng(seed)
    n = degree - 1
    if kind == "monomial":
        weights = np.zeros(n)
        weights[-1:] = 1.0
        phases = np.full(n, rng.uniform(0.0, 2.0 * math.pi))
    else:
        weights = rng.exponential(size=n) * (rng.random(n) < rng.uniform(0.1, 1.0))
        phases = (rng.uniform(0.0, 2.0 * math.pi, n) if kind == "complex"
                  else math.pi * rng.integers(0, 2, n))
    s2 = float(np.sum(np.arange(1, degree) * weights)) or 1.0
    coeffs = fill * STARLIKE_SUM_LIMIT * weights / s2 * np.exp(1j * phases) * scale
    f = shear_from_series(CoefficientSeries(tuple(complex(a) for a in coeffs)), label=kind)
    assert starlike_certificate(f).certified
    return f


def brute_force_records(f, radii, n_angular):
    """The scan without the screen: |deriv_raw| at every circle sample."""
    phi = np.arange(n_angular) * (2.0 * math.pi / n_angular)
    z2 = (np.asarray(radii)[:, None] * np.exp(1j * phi)).ravel()
    m = np.abs(f.g.deriv_raw(z2)).reshape(len(radii), n_angular).max(axis=1)
    sups = [unipotent_opnorm(float(x)) for x in m]
    return [
        GrowthRecord(r=r, sup_norm=s, bound=b, conforms=s <= b + CONFORMANCE_TOLERANCE)
        for r, s, b in zip(radii, sups, map(s0_growth_bound, radii))
    ]


_KINDS = st.sampled_from(["complex", "real", "monomial"])


@settings(max_examples=80, deadline=None)
@given(
    degree=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    kind=_KINDS,
    fill=st.floats(0.0, 0.999),
    n_angular=st.integers(1, 600) | st.sampled_from([1024, 2048]),
    radii=st.lists(st.floats(0.01, 0.999), min_size=1, max_size=4),
)
@example(degree=1, seed=0, kind="complex", fill=0.5, n_angular=64, radii=[0.5])  # identity
@example(degree=2, seed=1, kind="monomial", fill=0.9, n_angular=2048, radii=[0.3, 0.9])
@example(degree=150, seed=2, kind="monomial", fill=0.999, n_angular=7, radii=[0.99])
@example(degree=300, seed=3, kind="complex", fill=0.999, n_angular=7, radii=[0.999])  # fold
@example(degree=300, seed=4, kind="real", fill=0.9, n_angular=1, radii=[0.5, 0.7])
@example(degree=5, seed=5, kind="complex", fill=0.9, n_angular=2048, radii=[0.01, 0.5])
@example(degree=300, seed=6, kind="real", fill=0.9, n_angular=100, radii=[0.01])  # underflow
@example(degree=40, seed=7, kind="real", fill=0.0, n_angular=3, radii=[0.2])  # g = 0
def test_screened_scan_equals_brute_force(degree, seed, kind, fill, n_angular, radii):
    """The FFT screen never drops the Horner maximum: the records equal a
    pass over every circle sample bit for bit, with n_angular below and
    above the degree, for monomials (every sample tied) and the identity."""
    f = random_certified_shear(degree, seed, kind, fill)
    assert growth_conformance_scan(f, radii, n_angular) == brute_force_records(f, radii, n_angular)


@pytest.mark.parametrize("scale", [1e-150, 1e-300, 1e-320])
def test_screened_scan_equals_brute_force_on_tiny_coefficients(scale):
    """Coefficients and values deep in the subnormal range, where only the
    absolute part of the slack holds."""
    f = random_certified_shear(60, 8, "complex", scale=scale)
    radii = (0.05, 0.5, 0.95)
    assert growth_conformance_scan(f, radii, 64) == brute_force_records(f, radii, 64)


@settings(max_examples=12, deadline=None)
@given(
    degree=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    kind=_KINDS,
    n_angular=st.sampled_from([1, 2, 3, 7, 16, 64, 100]),
    r=st.floats(0.01, 0.999),
)
@example(degree=40, seed=9, kind="real", n_angular=2048, r=0.9)
@example(degree=300, seed=10, kind="complex", n_angular=7, r=0.999)
def test_screen_slack_bounds_fft_and_horner_errors(degree, seed, kind, n_angular, r):
    """50-digit oracle: at every double sample point z_j the FFT screen and
    Horner's deriv_raw both stay within eps_r of the exact g'(z_j)."""
    mpmath = pytest.importorskip("mpmath")
    f = random_certified_shear(degree, seed, kind, fill=0.999)
    series = f.g.coefficients
    slopes = np.arange(1, degree + 1) * np.asarray((0j, *series.coeffs))
    eps = _screen_slack(slopes, np.array([r]), n_angular)[0]
    screen = circle_values(slopes, [r], n_angular)[0]
    z2 = r * np.exp(1j * (np.arange(n_angular) * (2.0 * math.pi / n_angular)))
    horner = f.g.deriv_raw(z2)
    with mpmath.workdps(50):
        # exact k a_k of the stored coefficients, highest power first
        exact_slopes = [k * mpmath.mpc(a.real, a.imag)
                        for k, a in enumerate(series.coeffs, start=2)][::-1]
        for j, z in enumerate(z2):
            exact = mpmath.polyval(exact_slopes, mpmath.mpc(z.real, z.imag)) * z
            assert abs(mpmath.mpc(screen[j].real, screen[j].imag) - exact) <= eps
            assert abs(mpmath.mpc(horner[j].real, horner[j].imag) - exact) <= eps


def test_screen_runs_horner_on_few_points():
    """On the benchmark maps deriv_raw sees at most two points per radius
    (conjugate ties of real coefficients); a monomial, whose |g'| is
    constant on each circle, keeps every sample as a candidate."""
    radii = tuple(float(r) for r in np.linspace(0.1, 0.9, 9))
    geometric40 = shear_from_series(CoefficientSeries(tuple(2.0**-k for k in range(2, 41))))
    cubic200 = shear_from_series(CoefficientSeries(tuple(0.5 / k**3 for k in range(2, 201))))
    for f in (geometric40, cubic200):
        wrapped, counts = counted_shear(f)
        assert growth_conformance_scan(wrapped, radii) == brute_force_records(f, radii, 2048)
        assert len(radii) <= counts["deriv_raw"] <= 2 * len(radii)
    wrapped, counts = counted_shear(monomial_shear(0.5))
    growth_conformance_scan(wrapped, radii, n_angular=64)
    assert counts["deriv_raw"] == 64 * len(radii)


def test_import_does_not_load_numpy_fft():
    """numpy.fft loads on the first growth scan, not with the package (on
    numpy 1.x, importing numpy itself loads it)."""
    code = ("import sys, numpy; before = 'numpy.fft' in sys.modules; "
            "import shearmaps, shearmaps.cli; "
            "print(before or 'numpy.fft' not in sys.modules)")
    src = str(Path(shearmaps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "True", out.stderr
