import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bounded_nine_term_shear,
    geometric_shear,
    heavy_nine_term_shear,
    identity_shear,
    monomial_shear,
    random_ball_points,
)
from shearmaps import (
    STARLIKE_SUM_LIMIT,
    Certificate,
    CoefficientSeries,
    DomainError,
    UnsupportedRepresentationError,
    all_certificates,
    counterexample_map,
    embed_certificate,
    shear_from_series,
    starlike_certificate,
    starshapelike_certificate,
    tail_sum,
)


def test_eval_inverse_round_trip():
    f = geometric_shear()
    rng = np.random.default_rng(21)
    for p in random_ball_points(rng, 1000):
        w = f.eval(p)
        z1, z2 = f.inverse(w)
        assert z2 == p.z2  # second slot passes through untouched
        assert abs(z1 - p.z1) <= 1e-14


def test_inverse_requires_disk_second_slot():
    f = geometric_shear()
    with pytest.raises(DomainError):
        f.inverse((0.5, 1.0))
    # the first slot of an image point may lie far outside the ball
    w1, w2 = f.inverse((25.0 + 3.0j, 0.5))
    assert w2 == 0.5
    assert abs(w1 - (25.0 + 3.0j - f.g.eval(0.5))) < 1e-12


def test_truncated_and_tail_partition_coefficients():
    f = bounded_nine_term_shear()
    full = f.g.coefficients.coeffs
    for m in (2, 4, 7, 10, 15):
        head = f.truncated(m).g.coefficients
        tail = f.tail_map(m).g.coefficients
        assert len(head.coeffs) == min(max(m - 1, 0), len(full))
        assert head.tail_bound == 0.0
        recombined = tuple(
            h + t
            for h, t in zip(
                head.coeffs + (0.0,) * (len(full) - len(head.coeffs)), tail.coeffs
            )
        )
        assert recombined == full


def test_truncation_degrees_below_one_are_refused():
    f = geometric_shear()
    with pytest.raises(DomainError):
        f.truncated(0)
    with pytest.raises(DomainError):
        f.tail_map(0)


def test_truncation_composition_identity():
    """f = head o tail in the shear group: inverting the truncated map on
    f(z) leaves exactly the tail map's image."""
    f = geometric_shear()
    rng = np.random.default_rng(23)
    for p in random_ball_points(rng, 200, radius=0.9):
        for m in (2, 3, 6):
            lhs = f.truncated(m).inverse(f.eval(p))
            rhs = f.tail_map(m).eval(p)
            assert abs(lhs[0] - rhs[0]) <= 5e-15
            assert lhs[1] == rhs[1]


def test_truncated_past_stored_range_is_identity_operation():
    f = geometric_shear()
    g = f.truncated(99)
    assert g.g.coefficients.coeffs == f.g.coefficients.coeffs
    assert g.g.coefficients.tail_bound == 0.0


def test_coefficient_ops_refuse_closed_form_maps():
    ce = counterexample_map()
    with pytest.raises(UnsupportedRepresentationError):
        ce.truncated(5)
    with pytest.raises(UnsupportedRepresentationError):
        ce.tail_map(5)
    # certification stays graceful instead: no coefficients, nothing certified
    for cert in all_certificates(ce):
        assert not cert.certified
    assert embed_certificate(ce).margin == -math.inf


def test_starlike_certificate_margins():
    for a2 in (0.5, 1.0):
        cert = starlike_certificate(monomial_shear(a2))
        assert cert.certified
        assert cert.margin == STARLIKE_SUM_LIMIT - a2
        assert cert.degree is None

    # the ceiling itself is still certified (inclusive bound), margin exactly 0
    boundary = starlike_certificate(monomial_shear(STARLIKE_SUM_LIMIT))
    assert boundary.certified
    assert boundary.margin == 0.0

    over = starlike_certificate(monomial_shear(2.7))
    assert not over.certified
    assert over.status == "NotCertified"
    assert over.margin < 0.0


def test_starlike_certificate_nine_term_fixtures():
    ok = starlike_certificate(bounded_nine_term_shear())
    assert ok.certified
    np.testing.assert_allclose(ok.margin, STARLIKE_SUM_LIMIT - 2.4951171875, rtol=1e-15)

    heavy = starlike_certificate(heavy_nine_term_shear())
    assert not heavy.certified
    np.testing.assert_allclose(heavy.margin, STARLIKE_SUM_LIMIT - 4.990234375, rtol=1e-15)


def test_starshapelike_certificate():
    cert = starshapelike_certificate(geometric_shear())
    assert cert.certified
    assert cert.margin == 1.5  # S1 of the geometric series, exact

    unbounded = shear_from_series(CoefficientSeries((1.0,), tail_bound=math.inf))
    cert = starshapelike_certificate(unbounded)
    assert not cert.certified


@pytest.mark.parametrize("coeffs", [(1e308 * (1 + 1j),), (0.0,) * 197 + (1.7e308, 1.7e308)])
@pytest.mark.parametrize("tail_bound", [None, 0.0, 1e308, math.inf])
def test_starshapelike_status_carries_finiteness(coeffs, tail_bound):
    """A finite stored head has a finite sum_k k|a_k|, also when that sum
    lies past double range: such a map is certified with margin inf, and
    only an inf tail bound makes the sum infinite."""
    cert = starshapelike_certificate(shear_from_series(CoefficientSeries(coeffs, tail_bound)))
    assert cert.certified == (tail_bound != math.inf)
    assert cert.margin == math.inf


def test_embed_certificates():
    cert = embed_certificate(identity_shear())
    assert cert.certified and cert.degree == 1 and cert.margin == 1.0

    cert = embed_certificate(geometric_shear())
    assert cert.certified and cert.degree == 2
    assert cert.margin == 0.0  # tail_sum(2) = 1.0 exactly

    # tail_sum(1) = 1.2 > 1 but the degree-2 tail is empty
    cert = embed_certificate(monomial_shear(0.6))
    assert cert.certified and cert.degree == 2 and cert.margin == 1.0

    cert = embed_certificate(monomial_shear(0.5))
    assert cert.certified and cert.degree == 1 and cert.margin == 0.0


def test_embed_respects_degree_cap():
    cert = embed_certificate(geometric_shear(), n_max=1)
    assert not cert.certified
    assert cert.degree is None
    assert cert.margin == 1.0 - 1.5

    unbounded = shear_from_series(CoefficientSeries((0.1,), tail_bound=math.inf))
    cert = embed_certificate(unbounded)
    assert not cert.certified
    assert cert.margin == -math.inf


def test_embed_search_stops_at_largest_stored_index(monkeypatch):
    """Past the largest stored index M, tail_sum(N) is the declared tail
    bound alone, and tail_sum never increases with N, so n_max = 10^5 costs
    at most ceil(log2 M) + 2 tail sums and gives the certificate of the
    full search."""
    import shearmaps.shear

    calls = []

    def counted(series, n):
        calls.append(n)
        return tail_sum(series, n)

    coeffs = tuple(0.5 / k**3 for k in range(2, 201))
    unbounded = shear_from_series(CoefficientSeries(coeffs, tail_bound=math.inf))
    heavy = CoefficientSeries(coeffs, tail_bound=2.0)  # tail_sum(N) > 1 for every N
    # tail_sum(N) <= 1 from some N deep inside the stored range
    tight = CoefficientSeries(coeffs, tail_bound=1.0 - tail_sum(CoefficientSeries(coeffs), 150))
    expected = [
        (unbounded, embed_certificate(unbounded, n_max=64)),
        (shear_from_series(heavy), Certificate(
            "Embeddable", "NotCertified", margin=1.0 - tail_sum(heavy, 10**5)
        )),
        (shear_from_series(tight), _linear_embed(tight, 10**5)),
    ]
    assert expected[2][1].certified and expected[2][1].degree > 100
    monkeypatch.setattr(shearmaps.shear, "tail_sum", counted)
    for f, cert in expected:
        calls.clear()
        assert embed_certificate(f, n_max=10**5) == cert
        assert len(calls) <= math.ceil(math.log2(f.g.coefficients.max_index)) + 2


def _linear_embed(series, n_max):
    """Reference: the upward search over N = 1..min(n_max, M)."""
    last = math.inf
    for n in range(1, min(n_max, series.max_index) + 1):
        last = tail_sum(series, n)
        if last <= 1.0:
            return Certificate("Embeddable", "Certified", margin=1.0 - last, degree=n,
                               s0_member=True)
    margin = 1.0 - last if math.isfinite(last) else -math.inf
    return Certificate("Embeddable", "NotCertified", margin=margin)


_EXPONENTS = st.one_of(st.floats(-300.0, 308.0), st.floats(-3.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(st.tuples(_EXPONENTS, st.floats(0.0, 2.0 * math.pi)), max_size=40),
    tail_bound=st.one_of(
        st.sampled_from([None, 0.0, 1.0, math.inf]), st.floats(0.0, 2.0), st.floats(0.0, 1e308)
    ),
    n_max=st.integers(1, 60),
)
def test_embed_bisection_matches_linear_search(terms, tail_bound, n_max):
    """Bisection finds the same degree and margin as the upward search, for
    coefficients from 1e-300 to 1e308 and any tail bound."""
    coeffs = tuple(10.0**e * complex(math.cos(t), math.sin(t)) for e, t in terms)
    series = CoefficientSeries(coeffs, tail_bound=tail_bound)
    assert embed_certificate(shear_from_series(series), n_max=n_max) == _linear_embed(
        series, n_max
    )


def test_all_certificates_bundle():
    star, shape, embed = all_certificates(geometric_shear())
    assert (star.kind, shape.kind, embed.kind) == (
        "Starlike",
        "Starshapelike",
        "Embeddable",
    )
    assert star.certified and shape.certified and embed.certified
    assert star.s0_member and embed.s0_member


def test_certificate_invariants():
    with pytest.raises(DomainError):
        Certificate(kind="Starlike", status="Certified", margin=1.0, degree=3)
    with pytest.raises(DomainError):
        Certificate(kind="Embeddable", status="Certified", margin=1.0)  # no degree
    with pytest.raises(DomainError):
        Certificate(kind="Round", status="Certified", margin=1.0)
    with pytest.raises(DomainError):
        Certificate(kind="Starlike", status="Maybe", margin=1.0)
    ok = Certificate(kind="Starlike", status="NotCertified", margin=-1.0)
    assert not ok.certified


def test_labels_carry_through():
    f = geometric_shear()
    assert f.label == "geometric"
    assert f.truncated(3).label.startswith("geometric")
    assert f.tail_map(3).label != f.truncated(3).label
