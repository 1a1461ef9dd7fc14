import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bounded_nine_term_shear,
    geometric_deriv,
    geometric_shear,
    heavy_nine_term_shear,
    monomial_shear,
    random_ball_points,
)
from shearmaps import (
    STARLIKE_SUM_LIMIT,
    CoefficientSeries,
    ConfigError,
    DomainError,
    Jacobian2,
    UncertifiedMapError,
    counterexample_map,
    growth_conformance_scan,
    identity_shear,
    opnorm2,
    opnorm2_pair,
    s0_growth_bound,
    schwarz_pick_bound,
    shear_from_series,
    shear_opnorm,
    starlike_certificate,
    unipotent_opnorm,
)

GOLDEN_RATIO_NORM = (1.0 + math.sqrt(5.0)) / 2.0


def random_matrices(rng, n, scale=10.0):
    re = rng.uniform(-scale, scale, size=(n, 2, 2))
    im = rng.uniform(-scale, scale, size=(n, 2, 2))
    return re + 1j * im


def test_opnorm_matches_numpy_svd():
    rng = np.random.default_rng(41)
    for m in random_matrices(rng, 500):
        sv = np.linalg.svd(m, compute_uv=False)
        smax, smin = opnorm2_pair(Jacobian2(*m.ravel()))
        np.testing.assert_allclose(smax, sv[0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(smin, sv[1], rtol=1e-12, atol=1e-14)


def test_opnorm_pair_invariants():
    rng = np.random.default_rng(42)
    for m in random_matrices(rng, 300):
        j = Jacobian2(*m.ravel())
        smax, smin = opnorm2_pair(j)
        assert smax >= smin >= 0.0
        np.testing.assert_allclose(smax * smin, abs(j.det()), rtol=1e-12)
        frob = sum(abs(e) ** 2 for e in m.ravel())
        np.testing.assert_allclose(smax**2 + smin**2, frob, rtol=1e-12)


def test_opnorm_extreme_scales():
    """The closed form must survive entries whose squares leave double
    range in either direction."""
    assert opnorm2_pair(Jacobian2(0, 0, 0, 0)) == (0.0, 0.0)
    smax, smin = opnorm2_pair(Jacobian2(1e-150, 0, 0, 1e-160))
    assert smax == 1e-150 and smin == 1e-160
    smax, _ = opnorm2_pair(Jacobian2(1e150, 1e150, 0, 1e150))
    np.testing.assert_allclose(smax, GOLDEN_RATIO_NORM * 1e150, rtol=1e-14)


def test_opnorm_rejects_nonfinite_entries():
    with pytest.raises(DomainError):
        opnorm2(Jacobian2(1.0, complex("inf"), 0.0, 1.0))
    with pytest.raises(DomainError):
        opnorm2(Jacobian2(1.0, complex("nan"), 0.0, 1.0))


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
            unipotent_opnorm(m), opnorm2(Jacobian2(1.0, m, 0.0, 1.0)), rtol=1e-14
        )


def test_shear_opnorm_matches_jacobian_route():
    f = geometric_shear()
    rng = np.random.default_rng(43)
    for p in random_ball_points(rng, 100):
        np.testing.assert_allclose(
            shear_opnorm(f, p), opnorm2(f.jacobian(p)), rtol=1e-13
        )


def test_growth_bound_oracle_values():
    np.testing.assert_allclose(s0_growth_bound(0.5), 23.313708498984763, rtol=1e-15)
    np.testing.assert_allclose(s0_growth_bound(0.9), 3797.366596101028, rtol=1e-14)
    assert s0_growth_bound(0.0) == 1.0
    for bad in (1.0, -0.1, 2.0):
        with pytest.raises(DomainError):
            s0_growth_bound(bad)


def test_schwarz_pick_bound_domain():
    with pytest.raises(DomainError):
        schwarz_pick_bound(1.0, 0.5)
    with pytest.raises(DomainError):
        schwarz_pick_bound(0.5, -0.1)
    assert schwarz_pick_bound(0.0, 0.0) == 1.0


def test_schwarz_pick_specializes_to_growth_bound():
    for r in np.linspace(0.02, 0.9, 20):
        sq = math.sqrt(r)
        np.testing.assert_allclose(
            schwarz_pick_bound(sq, sq), s0_growth_bound(r), rtol=1e-12
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
