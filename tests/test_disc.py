"""Punctured-disc kernel: basis amplitudes, kernel laws, geometry."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bergman_zeros import disc
from bergman_zeros.disc import (
    Annulus,
    DomainError,
    TruncationError,
    adaptive_truncation,
    c1_area,
    expected_zero_measure,
    hyperbolic_area,
    kernel_function,
    log_bergman_l1,
    make_disc_space,
    normalized_kernel,
    poincare_distance,
    sup_kernel,
    zero_counting_function,
)
from oracles import kernel


def mp_log_coeff(p, ell, dps=80):
    with mp.workdps(dps):
        return (p - 1) * mp.log(ell) - mp.log(2 * mp.pi) - mp.loggamma(p - 1)


def mp_kernel_function(p, r, dps=60):
    """Closed form B_p via the polylog (rational for negative integer order)."""
    with mp.workdps(dps):
        r = mp.mpf(str(r))
        u = -mp.log(r * r)
        return u**p * mp.polylog(1 - p, r * r) / (2 * mp.pi * mp.factorial(p - 2))


def mp_plateau_error(p, r, dps=60):
    with mp.workdps(dps):
        return float(abs(2 * mp.pi * mp_kernel_function(p, r, dps) / (p - 1) - 1))


class TestBasisAmplitudes:
    def test_p2_ell1(self):
        space = make_disc_space(2, 4)
        assert math.exp(space.log_coeffs[0]) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_p3_ell2(self):
        # ell^(p-1) / (2 pi (p-2)!) at ell = 2, p = 3 is 4 / 2pi = 2/pi
        space = make_disc_space(3, 4)
        assert math.exp(space.log_coeffs[1]) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_high_power_matches_extended_precision(self):
        space = make_disc_space(200, 150)
        oracle = float(mp_log_coeff(200, 150))
        assert space.log_coeffs[149] == pytest.approx(oracle, rel=1e-12)

    def test_direct_factorial_identity_small_p(self):
        for p in range(2, 21):
            space = make_disc_space(p, 1)
            assert math.exp(space.log_coeffs[0]) == pytest.approx(
                1.0 / (2.0 * math.pi * math.factorial(p - 2)), rel=1e-12
            )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_disc_space(1, 10)
        with pytest.raises(ValueError):
            make_disc_space(5, 0)


class TestKernelFunction:
    def test_plateau_at_p60(self):
        space = make_disc_space(60, adaptive_truncation(60, 0.9))
        plateau = 59.0 / (2.0 * math.pi)
        for r in np.linspace(0.3, 0.9, 25):
            assert kernel_function(space, r) == pytest.approx(plateau, rel=1e-3)

    def test_vanishes_toward_puncture(self):
        space = make_disc_space(10, 64)
        assert kernel_function(space, 1e-9) < 1e-6

    def test_matches_polylog_closed_form(self):
        for p, r in [(12, 0.35), (25, 0.6), (60, 0.85), (150, 0.5)]:
            space = make_disc_space(p, adaptive_truncation(p, r))
            assert kernel_function(space, r) == pytest.approx(float(mp_kernel_function(p, r)), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(p=hst.integers(3, 20), r=hst.floats(0.05, 0.95))
    def test_equals_direct_summation_when_it_fits(self, p, r):
        L = adaptive_truncation(p, r)
        space = make_disc_space(p, L)
        ells = np.arange(1, L + 1, dtype=float)
        direct = (
            abs(math.log(r * r)) ** p
            / (2.0 * math.pi * math.factorial(p - 2))
            * math.fsum(ells ** (p - 1) * r ** (2 * ells))
        )
        assert kernel_function(space, r) == pytest.approx(direct, rel=1e-10)

    def test_domain_and_truncation_errors(self):
        # L = 8 is adequate at p = 40 up to |z| = 0.001; an array fails on
        # its one bad entry
        space = make_disc_space(40, 8)

        def at_points(space, r):
            return normalized_kernel(space, r, 1j * np.asarray(r))

        for fn in (kernel_function, zero_counting_function, at_points):
            for r in (1.5, [1e-4, 1.5], [0.0, 1e-4], [1e-4, np.nan]):
                with pytest.raises(DomainError):
                    fn(space, r)
            for r in (0.9, [1e-4, 0.9, 1e-3]):
                with pytest.raises(TruncationError) as exc:
                    fn(space, r)
                assert exc.value.required_length > 8
            fn(space, [1e-4, 1e-3])


class TestArrayCalls:
    """A scalar call is the 0-d case of the array call, with one truncation check at the largest radius."""

    @settings(max_examples=60, deadline=None)
    @given(
        p=hst.integers(2, 1000),
        r=hst.floats(1e-3, 0.99),
        s=hst.floats(1e-3, 0.99),
        rel_tol=hst.sampled_from([1e-7, 1e-14, 1e-16]),
    )
    def test_truncation_nondecreasing_in_radius(self, p, r, s, rel_tol):
        lo, hi = sorted((r, s))
        assert adaptive_truncation(p, lo, rel_tol) <= adaptive_truncation(p, hi, rel_tol)

    def test_radial_functions_match_scalar_calls(self, space80):
        radii = np.linspace(0.02, 0.7, 6 * 7).reshape(6, 7)
        for fn in (disc.log_kernel_function, kernel_function, zero_counting_function):
            got = fn(space80, radii)
            assert isinstance(got, np.ndarray) and got.shape == radii.shape
            scalar = [fn(space80, float(r)) for r in radii.flat]
            assert all(type(v) is float for v in scalar)
            np.testing.assert_allclose(got, np.reshape(scalar, radii.shape), rtol=1e-13, atol=0.0)

    def test_normalized_kernel_matches_scalar_calls(self, space80):
        rng = np.random.default_rng(41)
        z = rng.uniform(0.1, 0.6, (5, 8)) * np.exp(2j * np.pi * rng.random((5, 8)))
        w = z * rng.uniform(0.9, 1.1, (5, 8)) * np.exp(0.3j * rng.standard_normal((5, 8)))
        got = normalized_kernel(space80, z, w)
        assert got.shape == z.shape
        scalar = [normalized_kernel(space80, complex(a), complex(b)) for a, b in zip(z.flat, w.flat)]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_allclose(got, np.reshape(scalar, z.shape), rtol=1e-13, atol=0.0)
        # broadcasting: one point against a row of points
        row = [normalized_kernel(space80, complex(z[0, 0]), complex(b)) for b in w[0]]
        np.testing.assert_allclose(normalized_kernel(space80, z[0, 0], w[0]), row, rtol=1e-13, atol=0.0)


class TestTwoPointKernel:
    def test_diagonal_consistency(self, space80):
        for z in (0.4 + 0.2j, -0.1 + 0.55j):
            log_modulus, phase = kernel(space80, z, z)
            assert log_modulus == pytest.approx(math.log(kernel_function(space80, abs(z))), abs=1e-12)
            assert phase == pytest.approx(0.0, abs=1e-12)

    def test_hermitian_symmetry(self, space80):
        rng = np.random.default_rng(11)
        for _ in range(25):
            z, w = (rng.uniform(0.15, 0.65) * np.exp(2j * np.pi * rng.random()) for _ in range(2))
            a = kernel(space80, z, w)
            b = kernel(space80, w, z)
            assert a[0] == pytest.approx(b[0], abs=1e-10)
            assert a[1] == pytest.approx(-b[1], abs=1e-10)

    def test_far_points_decorrelate(self):
        p = 150
        space = make_disc_space(p, adaptive_truncation(p, 0.8))
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = 0.4 * np.exp(2j * np.pi * rng.random())
            w = 0.8 * np.exp(2j * np.pi * rng.random())
            assert normalized_kernel(space, z, w) <= 1e-6


class TestNormalizedKernel:
    def test_diagonal_is_one(self, space80):
        assert normalized_kernel(space80, 0.3 + 0.1j, 0.3 + 0.1j) == pytest.approx(1.0, abs=1e-12)

    def test_cauchy_schwarz_on_random_pairs(self, space80):
        rng = np.random.default_rng(17)
        vals = []
        for _ in range(10_000):
            z = rng.uniform(0.1, 0.69) * np.exp(2j * np.pi * rng.random())
            w = rng.uniform(0.1, 0.69) * np.exp(2j * np.pi * rng.random())
            vals.append(normalized_kernel(space80, z, w))
        vals = np.asarray(vals)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0 + 1e-12)

    def test_gaussian_near_diagonal_law(self):
        # N_p tracks sech(dist/sqrt 2)^p: exponent slope of -log N against
        # p dist^2/4 stays in [0.9, 1.1] inside the sqrt(log p/p) window
        p = 200
        space = make_disc_space(p, adaptive_truncation(p, 0.7))
        rng = np.random.default_rng(23)
        xs, ys = [], []
        dmax = math.sqrt(12 * math.log(p) / p)
        for _ in range(300):
            r = rng.uniform(0.35, 0.6)
            th = rng.uniform(0, 2 * np.pi)
            dth = rng.uniform(0.01, dmax) * math.sqrt(2.0) / abs(math.log(r * r)) * 2.0
            z = r * np.exp(1j * th)
            w = r * np.exp(1j * (th + dth))
            d = poincare_distance(z, w)
            n = normalized_kernel(space, z, w)
            if d <= dmax and n > 0:
                xs.append(p * d * d / 4.0)
                ys.append(-math.log(n))
        slope = np.polyfit(xs, ys, 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_sech_power_identity(self, space80):
        # closed relation between correlation and hyperbolic distance; below
        # ~1e-6 the cancellation noise of the off-diagonal sum takes over,
        # so the sharp comparison is restricted to the resolvable range
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(200):
            z = rng.uniform(0.25, 0.6) * np.exp(2j * np.pi * rng.random())
            w = rng.uniform(0.25, 0.6) * np.exp(2j * np.pi * rng.random())
            n = normalized_kernel(space80, z, w)
            d = poincare_distance(z, w)
            pred = (1.0 / math.cosh(d / math.sqrt(2.0))) ** space80.p
            if n > 1e-6:
                assert n == pytest.approx(pred, rel=1e-6)
                checked += 1
            else:
                assert pred < 2e-6
        assert checked >= 20


class TestSupKernel:
    def test_power_law_window(self):
        space = make_disc_space(100, adaptive_truncation(100, 0.95))
        r_star, value = sup_kernel(space)
        ratio = value * (2 * math.pi / 100) ** 1.5
        assert 0.75 <= ratio <= 1.25
        # maximizer has exponentially small modulus: -log r* grows like p/2
        assert -math.log(r_star) == pytest.approx(50.0, rel=0.05)

    def test_ratio_improves_with_p(self):
        ratios = {}
        for p in (100, 200):
            space = make_disc_space(p, adaptive_truncation(p, 0.95))
            _, value = sup_kernel(space)
            ratios[p] = value * (2 * math.pi / p) ** 1.5
        assert abs(ratios[200] - 1) < abs(ratios[100] - 1)

    def test_dominates_plateau(self):
        space = make_disc_space(50, adaptive_truncation(50, 0.95))
        _, value = sup_kernel(space)
        assert value >= 49.0 / (2.0 * math.pi)

    def test_requires_p_at_least_3(self):
        with pytest.raises(ValueError):
            sup_kernel(make_disc_space(2, 32))

    def test_large_p_search_range_stays_positive(self):
        # exp(-e * p) underflows to 0.0 from p = 275 on; the search must
        # still find the peak, checked against a dense-grid maximum
        p = 300
        space = make_disc_space(p, adaptive_truncation(p, 0.95))
        r_star, value = sup_kernel(space)
        ts = np.linspace(math.log(p / 2.0) - 1.0, math.log(p / 2.0) + 1.0, 4001)
        dense = max(kernel_function(space, math.exp(-math.exp(t))) for t in ts)
        assert value >= dense * (1.0 - 1e-12)
        assert value == pytest.approx(dense, rel=1e-6)
        assert -math.log(r_star) == pytest.approx(p / 2.0, rel=0.05)


class TestPlateauDecreasing:
    def test_true_error_strictly_decreasing(self):
        # float64 evaluation hits its rounding floor (~1e-14) by p = 40, so
        # the strict decrease is checked on the exact values via polylog
        sups = []
        for p in (20, 40, 60):
            sups.append(max(mp_plateau_error(p, r) for r in np.linspace(0.3, 0.9, 41)))
        assert sups[0] > sups[1] > sups[2]
        # the float64 path agrees with the oracle wherever it is above the floor
        space = make_disc_space(20, adaptive_truncation(20, 0.9))
        got = max(abs(2 * math.pi * kernel_function(space, r) / 19 - 1) for r in np.linspace(0.3, 0.9, 41))
        assert got == pytest.approx(sups[0], rel=1e-4)


class TestPoincareDistance:
    def test_coincident_points(self):
        assert poincare_distance(0.3 + 0.4j, 0.3 + 0.4j) == 0.0

    def test_radial_path_oracle(self):
        # quadrature of the radial length element sqrt(2)/(r |log r^2|)
        from scipy.integrate import quad

        r1, r2 = math.exp(-1.0), math.exp(-math.exp(math.sqrt(2.0)))
        val, _ = quad(lambda r: math.sqrt(2.0) / (r * abs(math.log(r * r))), r2, r1, epsrel=1e-12)
        assert poincare_distance(r1, r2) == pytest.approx(1.0, abs=1e-10)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_deck_invariance_near_branch_cut(self):
        a = 0.5 * np.exp(1j * (math.pi - 0.01))
        b = 0.5 * np.exp(1j * (-math.pi + 0.01))
        assert poincare_distance(a, b) < 0.05

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(0.05, 0.9, 300) * np.exp(2j * np.pi * rng.random(300))
        for i in range(100):
            x, y, z = pts[3 * i], pts[3 * i + 1], pts[3 * i + 2]
            dxy = poincare_distance(x, y)
            assert dxy == pytest.approx(poincare_distance(y, x), abs=1e-12)
            assert dxy <= poincare_distance(x, z) + poincare_distance(z, y) + 1e-9

    def test_domain_error(self):
        with pytest.raises(DomainError):
            poincare_distance(0.0, 0.5)


class TestExpectedZeroMeasure:
    def test_degenerate_annulus(self, space80):
        assert expected_zero_measure(space80, Annulus(0.5, 0.5)) == 0.0

    def test_additivity(self, space80):
        whole = expected_zero_measure(space80, Annulus(0.25, 0.65))
        left = expected_zero_measure(space80, Annulus(0.25, 0.45))
        right = expected_zero_measure(space80, Annulus(0.45, 0.65))
        assert whole == pytest.approx(left + right, abs=1e-9)

    def test_area_law_limit(self):
        # the per-p count converges to the curvature area at rate
        # O((u/2pi)^p); visible at small p, at rounding noise by p ~ 50
        region = Annulus(0.2, 0.7)
        area = c1_area(region)
        gaps = []
        for p in (8, 16, 32):
            space = make_disc_space(p, adaptive_truncation(p, 0.7, 1e-16))
            gaps.append(abs(expected_zero_measure(space, region) / p - area))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3 * area
        space = make_disc_space(100, adaptive_truncation(100, 0.7, 1e-16))
        assert abs(expected_zero_measure(space, region) / 100 - area) < 1e-12

    def test_area_formula_against_quadrature(self):
        # (1/2)(1/|log b| - 1/|log a|) is the closed radial integral of c1
        from scipy.integrate import quad

        region = Annulus(0.1, 0.5)
        val, _ = quad(lambda r: 1.0 / (2.0 * r * math.log(r) ** 2), region.a, region.b, epsrel=1e-12)
        assert c1_area(region) == pytest.approx(val, rel=1e-10)
        assert c1_area(region) == pytest.approx(0.504200, abs=1e-4)

    def test_counting_function_monotone(self, space80):
        rs = np.linspace(0.2, 0.7, 20)
        ns = [zero_counting_function(space80, r) for r in rs]
        assert all(b > a for a, b in zip(ns, ns[1:]))


class TestLogBergmanL1:
    def test_plateau_substitution(self):
        p = 18
        region = Annulus(0.3, 0.9)
        space = make_disc_space(p, adaptive_truncation(p, 0.9))
        expected = abs(math.log((p - 1) / (2 * math.pi))) * hyperbolic_area(region)
        assert log_bergman_l1(space, region) == pytest.approx(expected, rel=0.05)

    def test_empty_region(self, space80):
        assert log_bergman_l1(space80, Annulus(0.4, 0.4)) == 0.0

    def test_log_p_growth(self):
        region = Annulus(0.3, 0.9)
        vals = {}
        for p in (18, 36):
            space = make_disc_space(p, adaptive_truncation(p, 0.9))
            vals[p] = log_bergman_l1(space, region)
        # C log p bound with the plateau constant
        area = hyperbolic_area(region)
        assert vals[36] <= 1.05 * area * math.log(36)
        ratio_bound = abs(math.log(35 / (2 * math.pi))) / abs(math.log(17 / (2 * math.pi)))
        assert vals[36] / vals[18] <= 1.05 * ratio_bound

    def test_gauss_legendre_rule_built_once_and_handed_out_fresh(self):
        from numpy.polynomial.legendre import leggauss

        x_ref, w_ref = leggauss(disc.L1_QUAD_NODES)
        x, w = disc._legendre_rule(-1.0, 1.0, disc.L1_QUAD_NODES)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        x[:], w[:] = 0.0, 0.0  # a caller that writes into its arrays
        x, w = disc._legendre_rule(-1.0, 1.0, disc.L1_QUAD_NODES)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        builds = disc._leggauss.cache_info().misses
        log_bergman_l1(make_disc_space(18, adaptive_truncation(18, 0.9)), Annulus(0.3, 0.9))
        assert disc._leggauss.cache_info().misses == builds
