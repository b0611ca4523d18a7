"""Punctured-disc kernel: basis amplitudes, kernel laws, geometry."""

import cmath
import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bergman_zeros import disc
from bergman_zeros.disc import (
    Annulus,
    DomainError,
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
import oracles
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
        plateau = 59.0 / (2.0 * math.pi)
        for r in np.linspace(0.3, 0.9, 25):
            assert kernel_function(60, r) == pytest.approx(plateau, rel=1e-3)

    def test_vanishes_toward_puncture(self):
        assert kernel_function(10, 1e-9) < 1e-6

    def test_matches_polylog_closed_form(self):
        for p, r in [(12, 0.35), (25, 0.6), (60, 0.85), (150, 0.5)]:
            assert kernel_function(p, r) == pytest.approx(float(mp_kernel_function(p, r)), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(p=hst.integers(3, 20), r=hst.floats(0.05, 0.95))
    def test_equals_direct_summation_when_it_fits(self, p, r):
        ells = np.arange(1, adaptive_truncation(p, r, 1e-14) + 1, dtype=float)
        direct = (
            abs(math.log(r * r)) ** p
            / (2.0 * math.pi * math.factorial(p - 2))
            * math.fsum(ells ** (p - 1) * r ** (2 * ells))
        )
        assert kernel_function(p, r) == pytest.approx(direct, rel=1e-10)

    def test_domain_and_truncation_errors(self):
        # an array fails on its one bad entry.  The diagonal, the zero
        # counting function and the normalized kernel have no truncation to
        # fall short: only the sections check it (`sections._require_adequate`)
        def at_points(r):
            return normalized_kernel(40, r, 1j * np.asarray(r))

        for fn in (partial(kernel_function, 40), partial(zero_counting_function, 40), at_points):
            for r in (1.5, [1e-4, 1.5], [0.0, 1e-4], [1e-4, np.nan]):
                with pytest.raises(DomainError):
                    fn(r)


class TestClosedFormDiagonal:
    @staticmethod
    def mp_log_kernel(p, y, dps=50):
        """log B_p at y from the direct sum of ell^(p-1) e^(-ell y), to 1e-25 of the sum past its peak term."""
        with mp.workdps(dps):
            y = mp.mpf(y)
            total, ell = mp.mpf(0), 1
            while True:
                term = mp.exp((p - 1) * mp.log(ell) - ell * y)
                total += term
                if ell * y > p - 1 and term < total * mp.mpf("1e-25"):
                    break
                ell += 1
            return p * mp.log(y) + mp.log(total) - mp.log(2 * mp.pi) - mp.loggamma(p - 1)

    @pytest.mark.parametrize("p, bound", [(3, 2e-12), (20, 2e-12), (100, 2e-12), (200, 2e-12), (240, 2e-12), (1000, 5e-11)])
    def test_matches_direct_sum(self, p, bound):
        # from r = 0.95 (y = 0.1026) through the plateau to the sup (y = p) and past it; r = e^(-y/2)
        # underflows to 0.0 from y = 1490 on
        ys = np.array([0.1026, 0.21, 0.5, 1.0, 2.4, p / 4, p / 2, p, 2 * p, 5 * p])
        got = disc._log_diag(p, ys)
        errors = [abs(float(g - self.mp_log_kernel(p, y))) for g, y in zip(got, ys)]
        assert max(errors) <= bound


class TestDeckSum:
    """The Lipschitz deck sum D(q, s): sum_ell ell^(q-1) e^(-s ell) = Gamma(q) s^(-q) D(q, s)."""

    @staticmethod
    def mp_deck(q, s, dps=50):
        """|D(q, s)| from the direct sum over ell, to 1e-30 of the real-axis scale Gamma(q) (Re s)^(-q)."""
        with mp.workdps(dps):
            s = mp.mpc(s.real, s.imag)
            total, ell, scale = mp.mpc(0), 1, mp.gamma(q) * s.real**-q
            while True:
                term = mp.exp((q - 1) * mp.log(ell) - ell * s)
                total += term
                if ell * s.real > q - 1 and abs(term) < mp.mpf("1e-30") * scale:
                    return abs(total * s**q) / mp.gamma(q)
                ell += 1

    @pytest.mark.parametrize(
        "q, s, k",
        [
            (40, 2.0 - 1.0j, 0),  # the bulk: the k = 0 term alone
            (200, 4.0 - 3.0j, 0),  # its k = 1 term is 1e-3 of |D| but 3e-23 of the real-axis scale
            (50, 24.0, 7),  # the cusp
            (50, 24.0 - 3.1j, 8),
            (99, 48.0, 8),  # the Parseval term there
            (2, 2.0, 2),  # small q: past K = q, the closed form of the diagonal
            (3, 0.3 - 1.0j, 3),
            (7, 5.0, 7),
        ],
    )
    def test_matches_direct_sum(self, q, s, k):
        # errors measured relative to the k = 0 term on the real axis, (Re s / |s|)^q of |D|: at most 3e-15
        log_d, got_k = disc._log_deck(q, np.array([s]))
        error = abs(math.exp(log_d[0]) - float(self.mp_deck(q, s))) * (s.real / abs(s)) ** q
        assert error < 1e-14
        assert got_k == k

    @pytest.mark.parametrize("q, s", [(2, 800.0), (3, 800.0 - 1.0j)])
    def test_small_q_deep_in_the_cusp(self, q, s):
        # the closed form sums E(x) and adds log x = -Re s: x E(x) underflowed to log 0 from Re s ~ 745 on
        log_d, k = disc._log_deck(q, np.array([s]))
        assert k == q
        assert log_d[0] == pytest.approx(float(mp.log(self.mp_deck(q, s))), rel=1e-14)

    def test_k_is_the_smallest_the_bound_allows(self):
        # K comes from the largest Re s and |Im s| of the array, and each entry stops where its own bound allows:
        # the bulk entries beside a deep one keep their k = 0 term alone
        s = np.array([1.0, 24.0 - 3.1j, 0.5 + 0.2j, 12.0 + 1.0j])
        log_d, k = disc._log_deck(50, s)
        w = [math.hypot(24.0, 2.0 * math.pi * (n + 1) - 3.1) for n in (k - 1, k)]
        bound = [(2.0 + x) * (24.0 / x) ** 50 for x in w]
        assert bound[0] > disc.DECK_RTOL >= bound[1]
        assert disc._log_deck(50, s[[0, 2]])[1] == 0
        assert log_d[0] == log_d[2] == 0.0
        for got, entry in zip(log_d, s):
            assert abs(math.exp(got) - float(self.mp_deck(50, entry))) * (entry.real / abs(entry)) ** 50 < 1e-14


class TestArrayCalls:
    """A scalar call is the 0-d case of the array call."""

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

    def test_radial_functions_match_scalar_calls(self):
        radii = np.linspace(0.02, 0.7, 6 * 7).reshape(6, 7)
        for fn in (partial(disc.log_kernel_function, 80), partial(kernel_function, 80), partial(zero_counting_function, 80)):
            got = fn(radii)
            assert isinstance(got, np.ndarray) and got.shape == radii.shape
            scalar = [fn(float(r)) for r in radii.flat]
            assert all(type(v) is float for v in scalar)
            np.testing.assert_allclose(got, np.reshape(scalar, radii.shape), rtol=1e-13, atol=0.0)

    def test_normalized_kernel_matches_scalar_calls(self):
        rng = np.random.default_rng(41)
        z = rng.uniform(0.1, 0.6, (5, 8)) * np.exp(2j * np.pi * rng.random((5, 8)))
        w = z * rng.uniform(0.9, 1.1, (5, 8)) * np.exp(0.3j * rng.standard_normal((5, 8)))
        got = normalized_kernel(80, z, w)
        assert got.shape == z.shape
        scalar = [normalized_kernel(80, complex(a), complex(b)) for a, b in zip(z.flat, w.flat)]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_allclose(got, np.reshape(scalar, z.shape), rtol=1e-13, atol=0.0)
        # broadcasting: one point against a row of points
        row = [normalized_kernel(80, complex(z[0, 0]), complex(b)) for b in w[0]]
        np.testing.assert_allclose(normalized_kernel(80, z[0, 0], w[0]), row, rtol=1e-13, atol=0.0)
        # a cusp pair, y = 24 and relative angle 0.1: its deck sum takes K > 0 terms
        a, b = math.exp(-12.0) * cmath.exp(0.3j), math.exp(-12.0) * cmath.exp(0.4j)
        assert disc._log_deck(50, np.array([24.0 + 0.1j]))[1] > 0
        scalar = normalized_kernel(50, a, b)
        assert type(scalar) is float
        assert scalar == pytest.approx(normalized_kernel(50, np.array([a]), np.array([b]))[0], rel=1e-13, abs=0.0)


class TestTwoPointKernel:
    def test_diagonal_consistency(self, space80):
        for z in (0.4 + 0.2j, -0.1 + 0.55j):
            log_modulus, phase = kernel(space80, z, z)
            assert log_modulus == pytest.approx(math.log(kernel_function(80, abs(z))), abs=1e-12)
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
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = 0.4 * np.exp(2j * np.pi * rng.random())
            w = 0.8 * np.exp(2j * np.pi * rng.random())
            assert normalized_kernel(p, z, w) <= 1e-6


class TestNormalizedKernel:
    def test_diagonal_is_one(self):
        assert normalized_kernel(80, 0.3 + 0.1j, 0.3 + 0.1j) == pytest.approx(1.0, abs=1e-12)

    def test_cauchy_schwarz_on_random_pairs(self):
        rng = np.random.default_rng(17)
        vals = []
        for _ in range(10_000):
            z = rng.uniform(0.1, 0.69) * np.exp(2j * np.pi * rng.random())
            w = rng.uniform(0.1, 0.69) * np.exp(2j * np.pi * rng.random())
            vals.append(normalized_kernel(80, z, w))
        vals = np.asarray(vals)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0 + 1e-12)

    def test_gaussian_near_diagonal_law(self):
        # N_p tracks sech(dist/sqrt 2)^p: exponent slope of -log N against
        # p dist^2/4 stays in [0.9, 1.1] inside the sqrt(log p/p) window
        p = 200
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
            n = normalized_kernel(p, z, w)
            if d <= dmax and n > 0:
                xs.append(p * d * d / 4.0)
                ys.append(-math.log(n))
        slope = np.polyfit(xs, ys, 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_sech_power_identity(self):
        # closed relation between correlation and hyperbolic distance: the
        # k = 0 term of the Poincare series, all that K = 0 keeps in the
        # bulk, so it holds on every pair, however small N_p
        rng = np.random.default_rng(29)
        for _ in range(200):
            z = rng.uniform(0.25, 0.6) * np.exp(2j * np.pi * rng.random())
            w = rng.uniform(0.25, 0.6) * np.exp(2j * np.pi * rng.random())
            pred = (1.0 / math.cosh(poincare_distance(z, w) / math.sqrt(2.0))) ** 80
            assert normalized_kernel(80, z, w) == pytest.approx(pred, rel=1e-6)


class TestPoincareSeries:
    """normalized_kernel against |Li_(1-p)(z zbar')| / sqrt(Li_(1-p)(|z|^2) Li_(1-p)(|z'|^2)) at 60 digits.

    The far pairs lie where kernel-decay draws them at p = 200: radii in (0.3, 0.7), angles up to 2.3, radial moves
    to y = 9 (at y = 13 the deck terms of the diagonal reach 7.6e-10); the truncated L-series was up to 1.3e35 off on
    them.  The cusp pairs at p = 50 take deck terms.
    """

    FAR = [
        (0.5, 0.5 * cmath.exp(2j)),
        (0.6, 0.01),
        (0.3 * cmath.exp(1j), 0.7 * cmath.exp(-1.2j)),
        (0.45, 0.45 * cmath.exp(2.3j)),
        (0.65, 0.3 * cmath.exp(1.5j)),
        (0.35j, math.exp(-4.5) * cmath.exp(0.3j)),
        (0.3, 0.65 * cmath.exp(-0.9j)),
    ]
    CUSP = [
        (math.exp(a), math.exp(b) * cmath.exp(1j * theta))
        for a, b, theta in [(-12, -9, 0.5), (-10, -3, 0.1), (-7, -6.5, 1.0), (-11.5, -11, 3.0), (-4, -3.5, 0.2),
                            (-3.2, -11.8, 3.1), (-9, -8, 2.5)]
    ]

    @staticmethod
    def errors(p, pairs, dps=60):
        """Relative errors of normalized_kernel(p, z, z') over the pairs, and the reference values."""
        z, zp = np.array(pairs).T
        got, ref, li = normalized_kernel(p, z, zp), [], partial(mp.polylog, 1 - p)
        with mp.workdps(dps):
            for a, b in pairs:
                a, b = mp.mpc(a), mp.mpc(b)
                ref.append(float(abs(li(a * mp.conj(b))) / mp.sqrt(li(abs(a) ** 2) * li(abs(b) ** 2))))
        return np.abs(got / ref - 1.0), np.array(ref)

    def test_far_bulk_pairs(self):
        # at most 2.4e-14
        errors, ref = self.errors(200, self.FAR)
        assert np.all(ref < 1e-20)
        assert np.max(errors) < 1e-12

    def test_cusp_pairs(self):
        # at most 6.2e-15
        assert np.max(self.errors(50, self.CUSP)[0]) < 1e-12

    def test_only_the_cusp_needs_the_deck_terms(self, monkeypatch):
        # the k = 0 term alone is 1.4e-6 to 0.31 off on the cusp pairs
        monkeypatch.setattr(disc, "_log_deck", lambda q, s: (np.zeros(np.shape(s)), 0))
        assert np.max(self.errors(200, self.FAR)[0]) < 1e-12
        assert np.min(self.errors(50, self.CUSP)[0]) > 1e-12


class TestSupKernel:
    def test_power_law_window(self):
        neg_log_r, value = sup_kernel(100)
        ratio = value * (2 * math.pi / 100) ** 1.5
        assert 0.75 <= ratio <= 1.25
        # maximizer has exponentially small modulus: -log r* grows like p/2
        assert neg_log_r == pytest.approx(50.0, rel=0.05)

    def test_ratio_improves_with_p(self):
        ratios = {}
        for p in (100, 200):
            _, value = sup_kernel(p)
            ratios[p] = value * (2 * math.pi / p) ** 1.5
        assert abs(ratios[200] - 1) < abs(ratios[100] - 1)

    def test_dominates_plateau(self):
        _, value = sup_kernel(50)
        assert value >= 49.0 / (2.0 * math.pi)

    def test_requires_p_at_least_3(self):
        with pytest.raises(ValueError):
            sup_kernel(2)

    def test_large_p_search_range_stays_positive(self):
        # the search runs in y = -2 log r up to 2 e p and never forms r,
        # which underflows to 0.0 at that end from p = 275 on; checked
        # against a dense-grid maximum
        p = 300
        neg_log_r, value = sup_kernel(p)
        ts = np.linspace(math.log(p / 2.0) - 1.0, math.log(p / 2.0) + 1.0, 4001)
        dense = max(kernel_function(p, math.exp(-math.exp(t))) for t in ts)
        assert value >= dense * (1.0 - 1e-12)
        assert value == pytest.approx(dense, rel=1e-6)
        assert neg_log_r == pytest.approx(p / 2.0, rel=0.05)

    @pytest.mark.parametrize("p", [1500, 1600])
    def test_maximizer_below_the_smallest_double(self, p):
        # r* = e^(-p/2) underflows to 0.0 here.  A search that stopped at the
        # smallest normal r (-log r = 708.4) found the next bump of B_p, at
        # -log r = p/4, half as high
        neg_log_r, value = sup_kernel(p)
        assert neg_log_r == pytest.approx(p / 2.0, rel=1e-6)
        assert value * (2 * math.pi / p) ** 1.5 > 0.99


class TestPlateauDecreasing:
    def test_true_error_strictly_decreasing(self):
        # float64 evaluation hits its rounding floor (~1e-14) by p = 40, so
        # the strict decrease is checked on the exact values via polylog
        sups = []
        for p in (20, 40, 60):
            sups.append(max(mp_plateau_error(p, r) for r in np.linspace(0.3, 0.9, 41)))
        assert sups[0] > sups[1] > sups[2]
        # the float64 path agrees with the oracle wherever it is above the floor
        got = max(abs(2 * math.pi * kernel_function(20, r) / 19 - 1) for r in np.linspace(0.3, 0.9, 41))
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


class TestZeroCountingFunction:
    @staticmethod
    def mp_counting(p, r, dps=60):
        """n(r) = x d/dx log sum_ell ell^(p-1) x^ell = Li_(-p)(x) / Li_(1-p)(x), x = r^2."""
        with mp.workdps(dps):
            x = mp.mpf(r) ** 2
            return mp.polylog(-p, x) / mp.polylog(1 - p, x)

    @pytest.mark.parametrize("p", [2, 3, 8, 40, 100, 200, 1000, 2560])
    def test_matches_polylog_and_the_l_series(self, p):
        # the closed form within 1e-14 of 60 digits; the L-series oracle, truncated at a relative tail of 1e-16,
        # adds its own rounding over up to 3e4 terms.  (p - 1) x / (1 - x) in place of p x / (1 - x) is at least
        # 3.7e-4 off at r = 0.95
        rs = np.exp([-30.0, -12.0, -3.0, math.log(0.35), math.log(0.65), math.log(0.95)])
        got = zero_counting_function(p, rs)
        for r, n in zip(rs, got):
            assert abs(n / float(self.mp_counting(p, r)) - 1.0) <= 1e-14
        l_series = oracles.zero_counting_function(make_disc_space(p, adaptive_truncation(p, rs[-1], 1e-16)), rs)
        np.testing.assert_allclose(got, l_series, rtol=3e-14, atol=0.0)


class TestExpectedZeroMeasure:
    def test_degenerate_annulus(self):
        assert expected_zero_measure(80, Annulus(0.5, 0.5)) == 0.0

    def test_additivity(self):
        whole = expected_zero_measure(80, Annulus(0.25, 0.65))
        left = expected_zero_measure(80, Annulus(0.25, 0.45))
        right = expected_zero_measure(80, Annulus(0.45, 0.65))
        assert whole == pytest.approx(left + right, abs=1e-9)

    def test_area_law_limit(self):
        # the per-p count converges to the curvature area at rate
        # O((u/2pi)^p); visible at small p, at rounding noise by p ~ 50
        region = Annulus(0.2, 0.7)
        area = c1_area(region)
        gaps = []
        for p in (8, 16, 32):
            gaps.append(abs(expected_zero_measure(p, region) / p - area))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3 * area
        assert abs(expected_zero_measure(100, region) / 100 - area) < 1e-12

    def test_area_formula_against_quadrature(self):
        # (1/2)(1/|log b| - 1/|log a|) is the closed radial integral of c1
        from scipy.integrate import quad

        region = Annulus(0.1, 0.5)
        val, _ = quad(lambda r: 1.0 / (2.0 * r * math.log(r) ** 2), region.a, region.b, epsrel=1e-12)
        assert c1_area(region) == pytest.approx(val, rel=1e-10)
        assert c1_area(region) == pytest.approx(0.504200, abs=1e-4)

    def test_counting_function_monotone(self):
        rs = np.linspace(0.2, 0.7, 20)
        ns = [zero_counting_function(80, r) for r in rs]
        assert all(b > a for a, b in zip(ns, ns[1:]))


class TestLogBergmanL1:
    def test_plateau_substitution(self):
        p = 18
        region = Annulus(0.3, 0.9)
        expected = abs(math.log((p - 1) / (2 * math.pi))) * hyperbolic_area(region)
        assert log_bergman_l1(p, region) == pytest.approx(expected, rel=0.05)

    def test_empty_region(self):
        assert log_bergman_l1(80, Annulus(0.4, 0.4)) == 0.0

    def test_log_p_growth(self):
        region = Annulus(0.3, 0.9)
        vals = {}
        for p in (18, 36):
            vals[p] = log_bergman_l1(p, region)
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
        log_bergman_l1(18, Annulus(0.3, 0.9))
        assert disc._leggauss.cache_info().misses == builds


def test_kernel_laws_need_no_truncation(monkeypatch):
    # the plateau, sup and l1log drivers read the closed-form diagonal only, kernel-decay the Poincare series
    from bergman_zeros import experiments

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel law built a truncated space")

    monkeypatch.setattr(disc, "adaptive_truncation", refuse)
    monkeypatch.setattr(disc, "make_disc_space", refuse)
    for report in (
        experiments.plateau_experiment([20, 40]),
        experiments.sup_experiment([50, 100]),
        experiments.l1log_experiment([18, 36], Annulus(0.3, 0.9)),
        experiments.kernel_decay_experiment(200, Annulus(0.3, 0.7), 400),
    ):
        assert report.rows and all(c.passed for c in report.checks)


def sech_power_check(report):
    return next(c for c in report.checks if c.name == "decay_sech_power_identity")


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 20260811])
@pytest.mark.parametrize("p, n_pairs", [(200, 1000), (100, 120)])
def test_sech_power_check_passes_for_any_seed(p, n_pairs, seed):
    # the benchmark's kernel-decay op and the golden config: every check passes.  The sech-power gap is at most
    # 4.0e-10 at p = 200 and 6.7e-3 at p = 100, whose radial moves reach y = 19.4: deck terms, at most 4.9e-2 of
    # their bounds
    from bergman_zeros import experiments

    report = experiments.kernel_decay_experiment(p, Annulus(0.3, 0.7), n_pairs, seed)
    assert report.all_passed, [c.detail for c in report.checks if not c.passed]


@pytest.mark.parametrize("seed", range(1, 8))
def test_kernel_decay_passes_in_the_cusp(seed):
    # p = 50 on (e^-12, e^-3): angular moves past pi wrap, so pairs are labelled by their measured distance (a far
    # max near 1 before), and radial moves that would pass the sup point y = p go outward (a far max of 1.1e-3 at
    # seed 1 before, from a pair at y = 263); the far max is now about 1e-9
    from bergman_zeros import experiments

    report = experiments.kernel_decay_experiment(50, Annulus(math.exp(-12.0), math.exp(-3.0)), 400, seed)
    assert report.all_passed, [c.detail for c in report.checks if not c.passed]


def test_sech_power_check_fails_a_wrong_law(monkeypatch):
    # N_(p-1) in place of N_p, or d in place of d / sqrt 2, breaks the identity far beyond its bound
    from bergman_zeros import experiments

    run = partial(experiments.kernel_decay_experiment, 200, Annulus(0.3, 0.7), 400, 1)
    assert sech_power_check(run()).passed
    with monkeypatch.context() as m:
        m.setattr(disc, "normalized_kernel", lambda p, z, zp, nk=normalized_kernel: nk(p - 1, z, zp))
        assert not sech_power_check(run()).passed
    with monkeypatch.context() as m:
        m.setattr(disc, "poincare_distance", lambda z, zp: math.sqrt(2.0) * poincare_distance(z, zp))
        assert not sech_power_check(run()).passed
