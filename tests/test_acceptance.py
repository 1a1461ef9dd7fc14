"""Acceptance gate: one test per shipped guarantee, each at its stated
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS line per criterion."""

import json
import math

import numpy as np
import pytest

from conftest import (
    bounded_nine_term_shear,
    geometric_series,
    geometric_shear,
    heavy_nine_term_shear,
    identity_shear,
    monomial_shear,
)
from shearmaps import (
    DEFAULT_R_GRID,
    STARLIKE_SUM_LIMIT,
    SamplerConfig,
    UncertifiedMapError,
    ce_lower_bound,
    counterexample_map,
    divergence_scan,
    dump_series_spec,
    embed_certificate,
    eq1_scan,
    growth_conformance_scan,
    radial_image_bound,
    s0_growth_bound,
    shear_opnorm,
    starlike_certificate,
    starlike_quantity,
    starlike_scan,
    tail_sum,
    unipotent_opnorm,
    unit_modulus_check,
)
from shearmaps.cli import main

WIDE = SamplerConfig(
    radius=0.999, n_radial=40, n_split=40, n_phase=12, n_random=45_000
)


def test_acceptance_1_starlike_boundary_scan():
    """The coefficient boundary |a2| = 3*sqrt(3)/2 is certified inclusive and
    survives a >=1e5-sample scan at radius 0.999 with no violation below
    -1e-12, while |a2| = 2.7 produces a certified violation."""
    boundary = monomial_shear(STARLIKE_SUM_LIMIT)
    cert = starlike_certificate(boundary)
    assert cert.certified
    assert cert.margin == 0.0

    report = starlike_scan(boundary, sampler=WIDE)
    assert report.samples >= 100_000
    assert report.refused == 0
    assert report.extremum >= -1e-12
    assert not report.violation

    bad = starlike_scan(monomial_shear(2.7), sampler=WIDE)
    assert bad.violation
    assert bad.extremum <= -0.01
    print(
        "ACCEPTANCE 1: PASS — boundary map certified (margin 0), "
        f"{report.samples} samples keep the starlike quantity >= "
        f"{report.extremum:.3g}; |a2|=2.7 violates at {bad.extremum:.3g}"
    )


def _power_square_opnorm(mats: np.ndarray) -> np.ndarray:
    """Independent oracle: largest singular value via 60 squarings of J^H J
    (normalized each step) and Rayleigh quotients from both columns of the
    converged matrix."""
    a = np.conj(np.swapaxes(mats, -1, -2)) @ mats
    b = a.copy()
    for _ in range(60):
        scale = np.abs(b).max(axis=(-2, -1), keepdims=True)
        b = b / np.maximum(scale, 1e-300)
        b = b @ b
    scale = np.abs(b).max(axis=(-2, -1), keepdims=True)
    b = b / np.maximum(scale, 1e-300)
    lams = []
    for col in (0, 1):
        v = b[..., :, col]
        av = np.einsum("...ij,...j->...i", a, v)
        num = np.einsum("...i,...i->...", np.conj(v), av).real
        den = np.einsum("...i,...i->...", np.conj(v), v).real
        lams.append(num / np.maximum(den, 1e-300))
    return np.sqrt(np.maximum(lams[0], lams[1]))


def _hermitian_embedding_opnorm(mats: np.ndarray) -> np.ndarray:
    """Independent oracle: ||J|| = max |eig| of [[0, J], [J^H, 0]]."""
    n = mats.shape[0]
    emb = np.zeros((n, 4, 4), dtype=complex)
    emb[:, :2, 2:] = mats
    emb[:, 2:, :2] = np.conj(np.swapaxes(mats, -1, -2))
    return np.abs(np.linalg.eigvalsh(emb)).max(axis=-1)


def test_acceptance_2_operator_norm_oracles():
    """The closed-form norm (|m| + sqrt(|m|^2 + 4))/2 of a shear's Jacobian
    [[1, m], [0, 1]] agrees with two independent routes to within 1e-10
    relative error on 10^4 random complex m, and hits its quadratic-surd
    values to 1e-12."""
    rng = np.random.default_rng(20260818)
    parts = rng.uniform(-10.0, 10.0, size=(10_000, 2, 2, 2))
    mats = parts[..., 0] + 1j * parts[..., 1]
    mats[:, 0, 0] = mats[:, 1, 1] = 1.0
    mats[:, 1, 0] = 0.0

    closed = np.array([unipotent_opnorm(abs(m)) for m in mats[:, 0, 1]])
    power = _power_square_opnorm(mats)
    herm = _hermitian_embedding_opnorm(mats)
    rel_power = np.abs(closed - power) / power
    rel_herm = np.abs(closed - herm) / herm
    assert rel_power.max() <= 1e-10
    assert rel_herm.max() <= 1e-10

    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(unipotent_opnorm(1.0) - golden) <= 1e-12
    assert abs(unipotent_opnorm(3.0) - (3.0 + math.sqrt(13.0)) / 2.0) <= 1e-12
    print(
        "ACCEPTANCE 2: PASS — 10^4 shear Jacobians: max rel err "
        f"{rel_power.max():.3g} (power-squaring) / {rel_herm.max():.3g} "
        "(Hermitian embedding); unipotent goldens within 1e-12"
    )


def test_acceptance_3_growth_conformance():
    """Every starlike-certified sample map obeys the growth ceiling
    (1 + sqrt(r))^2 / (1 - r)^3 on nine radii, the intermediate estimate
    collapses onto the ceiling at rho = |zeta| = sqrt(r), and an
    uncertified map is refused rather than scanned."""
    certified = [
        identity_shear(),
        monomial_shear(0.5),
        monomial_shear(1.0),
        geometric_shear(),
        bounded_nine_term_shear(),
    ]
    radii = np.linspace(0.1, 0.9, 9)
    for f in certified:
        records = growth_conformance_scan(f, radii, n_angular=256)
        assert all(rec.conforms for rec in records), f.label

    assert abs(s0_growth_bound(0.5) - 23.3137085) <= 1e-6
    for r in np.linspace(0.01, 0.95, 100):
        s = math.sqrt(r)
        assert abs(1.0 / ((1.0 - s) ** 2 * (1.0 - s * s)) - s0_growth_bound(r)) <= 1e-9

    heavy = heavy_nine_term_shear()
    cert = starlike_certificate(heavy)
    assert not cert.certified
    assert cert.margin == pytest.approx(STARLIKE_SUM_LIMIT - 4.990234375, abs=1e-12)
    with pytest.raises(UncertifiedMapError):
        growth_conformance_scan(heavy, [0.5])
    print(
        "ACCEPTANCE 3: PASS — 5 certified maps conform on 9 radii; "
        "estimate matches ceiling to 1e-9 on [0.01, 0.95]; "
        "uncertified map refused"
    )


def test_acceptance_4_divergence_landmarks():
    """The closed-form witness map reproduces its landmark norms and ratios,
    the ratio (1-r)^3 ||df(0,r)|| / (lower-bound scale) increases strictly
    along the default grid, and the scan verdict is affirmative against
    C = 10."""
    ce = counterexample_map()
    assert abs(shear_opnorm(ce, (0.0, 0.9)) - 24300.0001) <= 1e-3
    assert abs(ce_lower_bound(0.9) - 24297.2) <= 1e-6
    landmarks = divergence_scan((0.9, 0.99)).records
    assert abs(landmarks[0].ratio - 24.3) <= 1e-3
    assert abs(landmarks[1].ratio - 294.03) <= 5e-2

    scan = divergence_scan(DEFAULT_R_GRID, c_report=10.0)
    ratios = [rec.ratio for rec in scan.records]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert scan.affirmative
    assert scan.records[-1].ratio > 4.0 * 10.0

    assert abs(radial_image_bound(0.9) - 1.210826164236634) <= 1e-6
    assert all(radial_image_bound(r) < math.sqrt(2.0) for r in DEFAULT_R_GRID)
    print(
        "ACCEPTANCE 4: PASS — ||df(0, 0.9)|| = 24300.0001, ratios "
        f"{ratios[0]:.4g} -> {ratios[-1]:.4g} strictly increasing, verdict "
        "affirmative vs C=10; radial image stays below sqrt(2)"
    )


def test_acceptance_5_boundary_blowup_probes():
    """Directed probes near zeta = 1 exhibit the predicted blow-ups: a
    starlike violation below -1e16, a circle where log|g| exceeds 1e6, a
    certified complement violation at alpha = 1/2, and exact unit modulus
    of the angular factor on the real axis."""
    ce = counterexample_map()

    z2 = 1.0 - 0.3 * complex(math.cos(math.pi / 6.0), math.sin(math.pi / 6.0))
    u = ce.g.eval(z2) - z2 * ce.g.deriv(z2)
    z1 = -0.2 * u / abs(u)
    direct = starlike_quantity(ce, (z1, z2))
    assert direct < -1e16

    sampler = SamplerConfig(
        radius=0.9, n_radial=4, n_split=5, n_phase=4, n_random=200,
        probes=((z1, z2),),
    )
    report = starlike_scan(ce, sampler=sampler)
    assert report.violation
    assert report.extremum <= -1e16

    r = 0.995
    delta = (math.sqrt(3.0) - math.sqrt(3.0 - 4.0 * (1.0 - r * r))) / 2.0
    phi = math.atan2(-delta / 2.0, 1.0 - delta * math.sqrt(3.0) / 2.0)
    angles = np.append(np.arange(4096) * (2.0 * math.pi / 4096), phi)
    with np.errstate(all="ignore"):
        peak = float(np.max(ce.g.log_abs_raw(r * np.exp(1j * angles))))
    assert peak >= 1e6

    hot = 1.0 - 0.012 * complex(math.cos(math.pi / 6.0), math.sin(math.pi / 6.0))
    eq1 = eq1_scan(
        ce,
        alphas=(0.5, 1.0),
        sampler=SamplerConfig(
            radius=0.5, n_radial=2, n_split=3, n_phase=2, n_random=10,
            probes=((0.1 + 0.0j, hot),),
        ),
    )
    assert eq1.violation
    assert eq1.alpha == 0.5

    assert unit_modulus_check(np.linspace(0.1, 0.9, 9)) <= 1e-12
    for r in np.linspace(0.1, 0.99, 90):
        h = ce.g.eval(complex(r)) / r**2
        assert abs(abs(h) - 1.0) <= 1e-9
    print(
        "ACCEPTANCE 5: PASS — starlike probe reaches "
        f"{direct:.3g} (< -1e16) directly and in-scan; log|g| peak "
        f"{peak:.3g} >= 1e6 at r=0.995; alpha=1/2 complement violation "
        "certified; |h(r)| = 1 to 1e-12"
    )


def test_acceptance_6_embedding_degrees():
    """Embeddability certificates report the minimal degree: the geometric
    map embeds at degree 2 with zero margin (its weighted tail sum is
    exactly 1) and the identity embeds at degree 1 with margin 1."""
    geo = embed_certificate(geometric_shear())
    assert geo.certified
    assert geo.degree == 2
    assert geo.margin == 0.0
    assert tail_sum(geometric_series(), 2) == pytest.approx(1.0, abs=1e-12)

    ident = embed_certificate(identity_shear())
    assert ident.certified
    assert ident.degree == 1
    assert ident.margin == 1.0
    print(
        "ACCEPTANCE 6: PASS — geometric map embeds at degree 2 with margin 0 "
        "(tail sum exactly 1); identity at degree 1 with margin 1"
    )


def test_acceptance_7_truncation_error_bound():
    """Replacing g by its degree-m head changes values on |z2| <= 1/2 by at
    most the coefficient tail sum at 1/2, and the error shrinks strictly
    as m grows."""
    f = geometric_shear()
    series = geometric_series()
    rng = np.random.default_rng(7)
    angles = 2.0 * math.pi * rng.random(400)
    radii = 0.5 * np.sqrt(rng.random(400))
    ring = 0.5 * np.exp(2j * math.pi * np.arange(64) / 64.0)
    points = np.concatenate([radii * np.exp(1j * angles), ring])

    sups = []
    for m in (2, 4, 6, 8):
        head = f.truncated(m)
        sup = max(
            abs(f.eval((0j, z))[0] - head.eval((0j, z))[0]) for z in points
        )
        bound = math.fsum(
            abs(series.coefficient(k)) * 0.5**k
            for k in range(m + 1, series.max_index + 1)
        )
        assert sup <= bound * (1.0 + 1e-12) + 1e-15, m
        sups.append(sup)
    assert all(b < a for a, b in zip(sups, sups[1:]))
    print(
        "ACCEPTANCE 7: PASS — degree-m truncation error <= tail bound at "
        f"radius 1/2 for m in (2, 4, 6, 8), strictly decreasing "
        f"({sups[0]:.3g} -> {sups[-1]:.3g})"
    )


def test_acceptance_8_inverse_and_jacobian():
    """Round-tripping 10^4 points through f then its inverse returns the
    input to 1e-12, and the Jacobian matches central differences to 1e-6."""
    rng = np.random.default_rng(41)

    def sample_points(n, radius):
        s = radius * rng.random(n) ** 0.25
        t = rng.random(n)
        ph = np.exp(2j * math.pi * rng.random((2, n)))
        z1 = s * np.sqrt(1.0 - t) * ph[0]
        z2 = s * np.sqrt(t) * ph[1]
        return list(zip(z1, z2))

    cases = [
        (geometric_shear(), 0.95, 3000),
        (monomial_shear(2.7), 0.95, 3000),
        (bounded_nine_term_shear(), 0.95, 3000),
        (counterexample_map(), 0.3, 1000),
    ]
    total = 0
    worst = 0.0
    for f, radius, n in cases:
        for p in sample_points(n, radius):
            q = f.inverse(f.eval(p))
            worst = max(worst, abs(q[0] - p[0]), abs(q[1] - p[1]))
            total += 1
    assert total == 10_000
    assert worst <= 1e-12

    h = 1e-6
    for f in (geometric_shear(), monomial_shear(2.7), bounded_nine_term_shear()):
        for z1, z2 in sample_points(40, 0.9):
            ref = np.array([[1.0, f.g.deriv(z2)], [0.0, 1.0]])
            fd = np.empty((2, 2), dtype=complex)
            fd[0, 0] = (f.eval((z1 + h, z2))[0] - f.eval((z1 - h, z2))[0]) / (2 * h)
            fd[1, 0] = (f.eval((z1 + h, z2))[1] - f.eval((z1 - h, z2))[1]) / (2 * h)
            fd[0, 1] = (f.eval((z1, z2 + h))[0] - f.eval((z1, z2 - h))[0]) / (2 * h)
            fd[1, 1] = (f.eval((z1, z2 + h))[1] - f.eval((z1, z2 - h))[1]) / (2 * h)
            np.testing.assert_allclose(fd, ref, rtol=1e-6, atol=1e-9)
    print(
        "ACCEPTANCE 8: PASS — 10^4 round-trips exact to "
        f"{worst:.3g} (<= 1e-12); Jacobians match central differences "
        "to 1e-6"
    )


def test_acceptance_9_cli_determinism(tmp_path):
    """Three CLI configurations produce byte-identical reports across
    three repeated runs, in both output formats."""
    geo_spec = tmp_path / "geo.json"
    geo_spec.write_text(dump_series_spec(geometric_series()))
    a27_spec = tmp_path / "a27.json"
    a27_spec.write_text('{"start": 2, "coeffs": [[2.7, 0.0]]}')

    configs = [
        ("certify", 0, ["certify", "--input", str(geo_spec)]),
        (
            "scan",
            1,
            [
                "starlike-scan", "--input", str(a27_spec), "--radius", "0.99",
                "--s-grid", "8", "--t-grid", "9", "--phase-grid", "4",
                "--random", "500", "--probe", "0.1,0.05;0.5,0.5",
            ],
        ),
        ("ce", 0, ["counterexample"]),
    ]
    checked = 0
    for name, want, argv in configs:
        for fmt in ("csv", "json"):
            outputs = []
            for run in ("a", "b", "c"):
                out = tmp_path / f"{name}-{fmt}-{run}.{fmt}"
                code = main(argv + ["--format", fmt, "--out", str(out)])
                assert code == want, (name, fmt, run)
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2], (name, fmt)
            if fmt == "json":
                json.loads(outputs[0])
            checked += 1
    assert checked == 6
    print(
        "ACCEPTANCE 9: PASS — 3 CLI configurations x 2 formats byte-identical "
        "across three repeated runs"
    )
