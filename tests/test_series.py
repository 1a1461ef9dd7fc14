import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    GEOMETRIC_M,
    GEOMETRIC_TAIL,
    geometric_deriv,
    geometric_eval,
    geometric_series,
)
from shearmaps import (
    BallPoint,
    CoefficientSeries,
    ConfigError,
    DiskFunction,
    DomainError,
    NormalizationError,
    OverflowRefusalError,
    coeff_sum_s1,
    coeff_sum_s2,
    disk_function_from_series,
    dump_series_spec,
    parse_series_spec,
    tail_sum,
)
from shearmaps.series import _horner, _horner_deriv


def test_geometric_eval_matches_closed_form():
    """Stored-polynomial eval vs the full-series closed form; the dropped
    tail is below 2^-82 on |zeta| <= 0.9."""
    g = disk_function_from_series(geometric_series())
    rng = np.random.default_rng(11)
    for _ in range(200):
        zeta = complex(*rng.uniform(-0.6, 0.6, 2))
        np.testing.assert_allclose(g.eval(zeta), geometric_eval(zeta), rtol=1e-13, atol=1e-18)
    assert g.eval(0.5) == pytest.approx(0.08333333333333333, rel=1e-15)


def test_geometric_deriv_matches_closed_form():
    g = disk_function_from_series(geometric_series())
    rng = np.random.default_rng(12)
    for _ in range(200):
        zeta = complex(*rng.uniform(-0.6, 0.6, 2))
        np.testing.assert_allclose(g.deriv(zeta), geometric_deriv(zeta), rtol=1e-13, atol=1e-18)
    assert g.deriv(0.5) == pytest.approx(0.3888888888888889, rel=1e-15)


def test_deriv_matches_finite_difference():
    g = disk_function_from_series(geometric_series())
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(50):
        zeta = complex(*rng.uniform(-0.55, 0.55, 2))
        fd = (g.eval(zeta + h) - g.eval(zeta - h)) / (2 * h)
        np.testing.assert_allclose(g.deriv(zeta), fd, rtol=1e-7)


def test_coefficient_sums_closed_forms():
    """S1 = sum k 2^-k = 1.5 and the tail-padded S2 land exactly on dyadic
    values, so equality is exact, not approximate."""
    geo = geometric_series()
    assert coeff_sum_s1(geo) == 1.5
    # stored part is 1 - 82*2^-41; the S1-flavored tail bound adds 84*2^-41
    assert coeff_sum_s2(geo) == 1.0 + 2.0**-40


def test_tail_sum_closed_form():
    geo = geometric_series()
    for n in range(1, 11):
        assert tail_sum(geo, n) == (n + 2) * 2.0**-n
    assert tail_sum(geo, 2) == 1.0


def test_tail_sum_covers_entire_stored_range():
    geo = geometric_series()
    assert tail_sum(geo, GEOMETRIC_M) == GEOMETRIC_TAIL
    assert tail_sum(geo, GEOMETRIC_M + 7) == GEOMETRIC_TAIL


def test_tail_sum_rejects_nonpositive_index():
    with pytest.raises(DomainError):
        tail_sum(geometric_series(), 0)


def test_exact_polynomial_has_no_tail():
    poly = CoefficientSeries((0.5, 0.25))
    assert poly.tail_bound is None
    assert tail_sum(poly, 3) == 0.0
    assert coeff_sum_s1(poly) == 2 * 0.5 + 3 * 0.25


def test_infinite_tail_bound_is_legal():
    s = CoefficientSeries((1.0,), tail_bound=math.inf)
    assert coeff_sum_s1(s) == math.inf
    assert tail_sum(s, 5) == math.inf


def test_series_validation():
    with pytest.raises(DomainError):
        CoefficientSeries((complex("nan"),))
    with pytest.raises(DomainError):
        CoefficientSeries((1.0,), tail_bound=-0.5)
    with pytest.raises(DomainError):
        CoefficientSeries((1.0,), tail_bound=math.nan)


def test_negative_tail_bound_message():
    """CoefficientSeries alone states the tail_bound rule; the spec parser
    reports the same message as a ConfigError prefixed with its source."""
    for tb in (-1.0, math.nan):
        with pytest.raises(DomainError) as exc:
            CoefficientSeries((1.0,), tail_bound=tb)
        assert str(exc.value) == f"tail_bound must be >= 0, got {tb!r}"
    with pytest.raises(ConfigError) as exc:
        parse_series_spec('{"start": 2, "coeffs": [], "tail_bound": -1}', source="neg.json")
    assert str(exc.value) == "neg.json: tail_bound must be >= 0, got -1.0"


def test_coefficient_access():
    geo = geometric_series()
    assert geo.start == 2
    assert geo.max_index == GEOMETRIC_M
    assert geo.coefficient(2) == 0.25
    assert geo.coefficient(GEOMETRIC_M + 3) == 0.0
    with pytest.raises(DomainError):
        geo.coefficient(1)


def test_ball_point_validation():
    p = BallPoint(0.3 + 0.1j, -0.2j)
    assert p.norm_sq == pytest.approx(0.3**2 + 0.1**2 + 0.2**2, rel=1e-15)
    assert p.as_tuple() == (0.3 + 0.1j, -0.2j)
    with pytest.raises(DomainError):
        BallPoint(1.0, 0.0)  # norm exactly 1 is outside the open ball
    with pytest.raises(DomainError):
        BallPoint(0.9, 0.9)
    with pytest.raises(DomainError):
        BallPoint(complex("inf"), 0.0)


def test_series_eval_rejects_points_outside_disk():
    g = disk_function_from_series(geometric_series())
    with pytest.raises(DomainError):
        g.eval(1.0)
    with pytest.raises(DomainError):
        g.deriv(1.0 + 0.2j)


def test_spec_round_trip():
    geo = geometric_series()
    again = parse_series_spec(dump_series_spec(geo))
    assert again.coeffs == geo.coeffs
    assert again.tail_bound == geo.tail_bound

    poly = CoefficientSeries((0.5 + 0.25j,))
    again = parse_series_spec(dump_series_spec(poly))
    assert again.coeffs == poly.coeffs
    assert again.tail_bound is None


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        '{"start": 2, "coeffs": [], "bogus": 1}',
        '{"coeffs": [[1.0, 0.0]]}',
        '{"start": 3, "coeffs": [[1.0, 0.0]]}',
        '{"start": 2, "coeffs": [[1.0]]}',
        '{"start": 2, "coeffs": [[1.0, 0.0, 0.0]]}',
        '{"start": 2, "coeffs": [1.0]}',
        '{"start": 2, "coeffs": [[true, 0.0]]}',
        '{"start": 2, "coeffs": "nope"}',
        '{"start": 2, "coeffs": [], "tail_bound": -1.0}',
        '{"start": 2, "coeffs": [], "tail_bound": true}',
        '{"start": 2, "coeffs": [], "tail_bound": "big"}',
    ],
)
def test_spec_rejections(text):
    with pytest.raises(ConfigError):
        parse_series_spec(text)


def test_spec_parse_error_reports_position():
    with pytest.raises(ConfigError, match=r"line 2"):
        parse_series_spec('{"start": 2,\n "coeffs": }', source="bad.json")


def test_normalization_guard():
    # g(0) != 0
    with pytest.raises(NormalizationError):
        DiskFunction(lambda z: z + 1.0, lambda z: 1.0 + 0.0 * z, lambda z: 0.0 * abs(z))
    # g'(0) != 0
    with pytest.raises(NormalizationError):
        DiskFunction(lambda z: 0.5 * z, lambda z: 0.5 + 0.0 * z, lambda z: 0.0 * abs(z))
    # g(0) = NaN and g'(0) = NaN compare false against any tolerance
    with pytest.raises(NormalizationError):
        DiskFunction(lambda z: np.nan * z, lambda z: 0.0 * z)
    with pytest.raises(NormalizationError):
        DiskFunction(lambda z: 0.0 * z, lambda z: np.nan * z)


def test_radial_log_bound_needs_the_log_kernel():
    """log_max_abs bounds log_abs_raw, so a disk function without that
    kernel refuses it."""
    with pytest.raises(ConfigError, match="log_abs_raw"):
        DiskFunction(lambda z: z * z, lambda z: 2.0 * z, log_max_abs=lambda t: 2.0 * np.log(t))
    g = DiskFunction(lambda z: z * z, lambda z: 2.0 * z, lambda z: 2.0 * np.log(np.abs(z)),
                     log_max_abs=lambda t: 2.0 * np.log(t))
    assert g.log_max_abs(0.5) == 2.0 * np.log(0.5)


def test_radial_deriv_log_bound_needs_the_deriv_log_kernel():
    """deriv_log_max_abs bounds deriv_log_abs_raw, so a disk function
    without that kernel refuses it, even with log_abs_raw."""
    with pytest.raises(ConfigError, match="deriv_log_abs_raw"):
        DiskFunction(lambda z: z * z, lambda z: 2.0 * z, lambda z: 2.0 * np.log(np.abs(z)),
                     deriv_log_max_abs=lambda t: np.log(2.0 * t))
    g = DiskFunction(lambda z: z * z, lambda z: 2.0 * z, lambda z: 2.0 * np.log(np.abs(z)),
                     lambda z: np.log(np.abs(2.0 * z)), deriv_log_max_abs=lambda t: np.log(2.0 * t))
    assert g.deriv_log_max_abs(0.5) == 0.0


def test_overflow_refusal():
    huge = DiskFunction(
        eval_raw=lambda z: 0.0 * z,
        deriv_raw=lambda z: 0.0 * z,
        log_abs_raw=lambda z: 800.0 + 0.0 * abs(z),
        label="synthetic-huge",
    )
    with pytest.raises(OverflowRefusalError):
        huge.eval(0.5)
    tame = DiskFunction(
        eval_raw=lambda z: z * z,
        deriv_raw=lambda z: 2.0 * z,
        log_abs_raw=lambda z: 2.0 * np.log(np.abs(z)),
    )
    assert tame.eval(0.5) == 0.25
    assert tame.deriv(0.5) == 1.0
    # 2 a_2 overflows to inf, yet g'(0) = 0 exactly (not inf * 0 = NaN),
    # for scalars and arrays; away from 0 the overflow is still refused
    big = disk_function_from_series(
        parse_series_spec('{"start": 2, "coeffs": [[1e308, 1e308]]}')
    )
    assert big.deriv(0j) == 0.0
    assert big.deriv_raw(0.0) == 0.0
    with np.errstate(all="ignore"):
        d = big.deriv_raw(np.array([0j, -0.0 + 0j, 0.5j, 0.5]))
    assert np.array_equal(d[:2], [0.0, 0.0])
    assert not np.isfinite(d[2:]).any()
    with pytest.raises(OverflowRefusalError):
        big.deriv(0.5)


# ---------------------------------------------------------------------------
# in-place Horner against the out-of-place reference


def reference_horner(coeffs, z):
    p = 0.0 * z
    for a in reversed(coeffs):
        p = p * z + a
    return p * z * z


def reference_horner_deriv(coeffs, z):
    p = 0.0 * z
    for k in range(len(coeffs) + 1, 1, -1):
        p = p * z + k * coeffs[k - 2]
    p = p * z
    # g'(0) = 0: only a non-finite result at z = 0 (inf * 0) is replaced
    if isinstance(p, np.ndarray):
        p[(z == 0) & ~np.isfinite(p)] = 0
    elif z == 0 and not (math.isfinite(p.real) and math.isfinite(p.imag)):
        p = 0j
    return p


def assert_same_bits(got, want):
    """Bitwise equality, NaN-aware: the same type, dtype and shape, NaN at
    the same places, and every other float (signed zeros too) identical."""
    assert type(got) is type(want)
    a, b = np.atleast_1d(np.asarray(got)), np.atleast_1d(np.asarray(want))
    assert a.dtype == b.dtype and a.shape == b.shape
    a, b = a.view(np.float64), b.view(np.float64)
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


_anyfloat = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e308, -1e-320]))
_point = st.one_of(
    st.builds(complex, _anyfloat, _anyfloat),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
_coeff = st.one_of(
    st.builds(complex, st.floats(-1e308, 1e308), st.floats(-1e308, 1e308)),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
# large arrays: 8192 points, one point either side, and 2 * 8192 + 1
_LARGE = 8192
_SEAMS = (_LARGE - 1, _LARGE, _LARGE + 1, 2 * _LARGE + 1)


def _disk_array(n, seed):
    re, im = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, n))
    return re + 1j * im


_z = st.one_of(
    hnp.arrays(np.complex128, st.integers(0, 12), elements=_point),
    hnp.arrays(np.float64, st.integers(0, 12), elements=_anyfloat),
    st.builds(_disk_array, st.sampled_from(_SEAMS), st.integers(0, 2**32 - 1)),
    _point,
    _anyfloat,
)
_SEAM_COEFFS = (0.5 - 0.25j, 1.0 + 0.5j, -0.75j)


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(_coeff, max_size=12).map(tuple), z=_z)
@example(coeffs=_SEAM_COEFFS, z=_disk_array(_SEAMS[0], 0))
@example(coeffs=_SEAM_COEFFS, z=_disk_array(_SEAMS[1], 1))
@example(coeffs=_SEAM_COEFFS, z=_disk_array(_SEAMS[2], 2))
@example(coeffs=_SEAM_COEFFS, z=_disk_array(_SEAMS[3], 3))
def test_in_place_horner_matches_reference_bitwise(coeffs, z):
    """The in-place kernels return what the out-of-place loops return, bit
    for bit, for complex and real arrays and Python complex and float
    scalars, including zeros of either sign, overflow, inf and NaN, and for
    arrays of about 8192 points and more."""
    with np.errstate(all="ignore"):
        for kernel, reference in (
            (_horner, reference_horner), (_horner_deriv, reference_horner_deriv)
        ):
            want = reference(coeffs, z.copy() if isinstance(z, np.ndarray) else z)
            assert_same_bits(kernel(coeffs, z), want)
