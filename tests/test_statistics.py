"""Smooth statistics: test functions, bipotential profile, variance, experiments."""

import math
import tracemalloc

import numpy as np
import pytest

from bergman_zeros import disc, sections, experiments
from bergman_zeros.disc import Annulus, make_disc_space
from bergman_zeros.statistics import (
    APERY,
    TestFunction,
    _angular_values,
    _bipotential_means,
    _c1_rule,
    _gtilde_fast,
    _pair_blocks,
    _theta_mean,
    expected_linear_statistic,
    laplacian_ratio,
    sodin_tsirelson_proxy,
    variance_bipotential,
    variance_leading_term,
)
from oracles import Gtilde, _gtilde_integral, _gtilde_series


class TestTestFunction:
    def test_support_and_flat_endpoints(self):
        phi = TestFunction(0.3, 0.6)
        for r in (0.3, 0.6, 0.299, 0.601, 0.1, 0.9):
            assert phi.value(r) == 0.0
            assert phi.d1(r) == 0.0
            assert phi.d2(r) == 0.0
        assert phi.value(0.45) == pytest.approx(1.0)
        eps = 1e-7
        assert phi.value(0.3 + eps) < 1e-10  # all derivatives vanish at the edge

    def test_derivatives_by_finite_difference(self):
        phi = TestFunction(0.3, 0.6, amplitude=1.7)
        h = 1e-6
        for r in (0.38, 0.45, 0.52):
            d1 = (phi.value(r + h) - phi.value(r - h)) / (2 * h)
            d2 = (phi.value(r + h) - 2 * phi.value(r) + phi.value(r - h)) / h**2
            assert float(phi.d1(r)) == pytest.approx(d1, rel=1e-7, abs=1e-9)
            assert float(phi.d2(r)) == pytest.approx(d2, rel=1e-4, abs=1e-6)

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            TestFunction(0.6, 0.3)


class TestLaplacianRatio:
    def test_zero_outside_support(self):
        phi = TestFunction(0.3, 0.6)
        assert laplacian_ratio(phi, 0.7) == 0.0
        assert laplacian_ratio(phi, 0.1 + 0.1j) == 0.0

    def test_finite_difference_oracle(self):
        # i d dbar phi / c1 by a Richardson-extrapolated 5-point Laplacian
        phi = TestFunction(0.3, 0.6)
        rng = np.random.default_rng(12)
        for _ in range(10):
            r = rng.uniform(0.36, 0.55)
            z = r * np.exp(2j * np.pi * rng.random())

            def lap5(h):
                f = lambda w: float(phi.value(abs(w)))
                return (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4 * f(z)) / h**2

            h = 1e-3
            lap = (4.0 * lap5(h / 2) - lap5(h)) / 3.0
            oracle = 0.5 * math.pi * lap * r * r * math.log(r * r) ** 2
            assert laplacian_ratio(phi, z) == pytest.approx(oracle, abs=1e-6 * max(1.0, abs(oracle)))

    def test_linearity(self):
        phi1 = TestFunction(0.3, 0.6, amplitude=1.0)
        phi2 = TestFunction(0.3, 0.6, amplitude=2.0)
        assert laplacian_ratio(phi2, 0.42) == pytest.approx(2.0 * laplacian_ratio(phi1, 0.42), rel=1e-12)

    def test_mean_zero_against_curvature(self):
        # int L(phi) c1 = 0 for compactly supported phi
        from numpy.polynomial.legendre import leggauss

        phi = TestFunction(0.3, 0.6)
        x, w = leggauss(400)
        r = 0.15 * x + 0.45
        meas = 0.15 * w / (2.0 * r * np.log(r) ** 2)
        assert abs(float(laplacian_ratio(phi, r) @ meas)) < 1e-10


class TestGtilde:
    def test_endpoints(self):
        assert Gtilde(0.0) == 0.0
        assert Gtilde(1.0) == pytest.approx(1.0 / 24.0, rel=1e-12)

    def test_small_t_quadratic(self):
        t = 1e-5
        assert Gtilde(t) / t**2 == pytest.approx(1.0 / (4.0 * math.pi**2), rel=1e-9)

    def test_series_integral_agreement(self):
        for t in np.linspace(0.0, 0.999, 150):
            assert _gtilde_series(t) == pytest.approx(_gtilde_integral(t), abs=1e-12)

    def test_fast_path_agreement(self):
        ts = np.linspace(0.0, 1.0, 200)
        fast = _gtilde_fast(ts)
        slow = np.array([Gtilde(t) for t in ts])
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            Gtilde(1.5)
        with pytest.raises(ValueError):
            Gtilde(-0.1)


class TestVariance:
    def test_zero_for_harmonic_test_function(self, space80):
        phi = TestFunction(0.35, 0.65, amplitude=0.0)
        assert variance_bipotential(space80, phi) == 0.0

    def test_nonnegative_and_converged(self, space80):
        phi = TestFunction(0.35, 0.65)
        v = variance_bipotential(space80, phi)
        assert v > 0.0

    def test_leading_term_scalings(self):
        phi1 = TestFunction(0.35, 0.65, amplitude=1.0)
        phi2 = TestFunction(0.35, 0.65, amplitude=2.0)
        assert variance_leading_term(phi2, 40) == pytest.approx(4.0 * variance_leading_term(phi1, 40), rel=1e-12)
        assert variance_leading_term(phi1, 80) == pytest.approx(0.5 * variance_leading_term(phi1, 40), rel=1e-12)

    def test_apery_constant(self):
        assert APERY == pytest.approx(1.202056903159594, abs=1e-15)
        # zeta(3) from scratch
        assert APERY == pytest.approx(sum(1.0 / k**3 for k in range(1, 400_000)), rel=1e-10)

    def test_grid_matches_scalar_kernel(self, space80):
        r = np.array([0.4, 0.5, 0.6])
        i, j = np.indices((3, 3)).reshape(2, -1)
        for n_t in (16, 64, 512):  # folded (n_t < L) and zero-padded (n_t > L)
            [(_, d, shift)] = _pair_blocks(space80, np.log(r), i, j, n_t)
            grid = _angular_values(d, shift, n_t)
            thetas = 2.0 * np.pi * np.arange(n_t // 2 + 1) / n_t
            direct = disc.normalized_kernel(space80, r[i, None], r[j, None] * np.exp(1j * thetas))
            assert np.max(np.abs(grid - direct)) < 1e-12

    @pytest.mark.parametrize("p", [40, 200])
    def test_parseval_term_is_the_theta_mean(self, p):
        # the grid mean of N_p^2 over n_t >= 4L angles has no aliasing: it is sum_l d_l^2
        space = make_disc_space(p, sections.truncation_length(p, 0.9))
        r = np.array([0.2, 0.45, 0.5, 0.9])
        i, j = np.triu_indices(r.size)
        n_t = 1 << (4 * space.L - 1).bit_length()
        [(_, d, shift)] = _pair_blocks(space, np.log(r), i, j, n_t)
        grid_mean = _theta_mean(_angular_values(d, shift, n_t) ** 2, n_t)
        parseval = np.sum(d * d, axis=1) * np.exp(2.0 * shift)
        assert np.max(np.abs(grid_mean / parseval - 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "p, a, b, dense_grid_value",
        [
            (40, 0.35, 0.65, 1.7687215252358381),
            (80, 0.35, 0.65, 1.5005194680720781),
            (200, 0.35, 0.65, 1.0584760746745427),
        ],
    )
    def test_matches_dense_grid_values(self, p, a, b, dense_grid_value):
        # pinned from the dense (r, r', theta) evaluation of the same quadrature rule
        phi = TestFunction(a, b)
        space = make_disc_space(p, sections.truncation_length(p, b))
        assert variance_bipotential(space, phi) == pytest.approx(dense_grid_value, rel=1e-9)

    def test_wide_support_in_bounded_memory(self):
        # the dense (r, r', theta) grid took 2.5 GB traced for this case; the value is pinned from it
        phi = TestFunction(0.1, 0.9)
        space = make_disc_space(160, sections.truncation_length(160, phi.b))
        diagnostics = {}
        tracemalloc.start()
        try:
            value = variance_bipotential(space, phi, diagnostics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert value == pytest.approx(0.07822989228457813, rel=1e-9)
        assert diagnostics == {"bipotential_radial_nodes": 256}

    def test_log_diagonal_in_row_blocks(self):
        # the log diagonal of all 512 radial nodes in one array peaks at 104 MB traced here (L = 4132);
        # in row blocks of sections.BLOCK_ENTRIES the first pair block peaks at 6 MB
        phi = TestFunction(0.1, 0.9)
        space = make_disc_space(640, sections.truncation_length(640, phi.b))
        r, _ = _c1_rule(phi.a, phi.b, 512)
        tracemalloc.start()
        try:
            next(_pair_blocks(space, np.log(r), *np.triu_indices(r.size), 2048))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_pair_block_size_does_not_change_values(self, monkeypatch):
        # each pair value depends on its own radii only: blocks of 4 to 19 pairs give the
        # same floats as the default blocks
        phi, region = TestFunction(0.35, 0.65), Annulus(0.2, 0.7)
        spaces = [make_disc_space(p, sections.truncation_length(p, phi.b)) for p in (40, 200)]
        proxy_space = make_disc_space(100, sections.truncation_length(100, region.b))

        def values():
            return [variance_bipotential(s, phi) for s in spaces] + [sodin_tsirelson_proxy(proxy_space, region)]

        default = values()
        monkeypatch.setattr(sections, "BLOCK_ENTRIES", 5000)
        blocks = _pair_blocks(spaces[1], np.log([0.4, 0.5, 0.6]), *np.triu_indices(3), 1024)
        assert [len(d) for _, d, _ in blocks] == [4, 2]
        assert values() == default

    @pytest.mark.parametrize("p", [50, 200, 800])
    @pytest.mark.parametrize("r0", [0.4, 0.5, 0.6])
    def test_local_bipotential_constant_is_zeta3(self, p, r0):
        # K(z) = int Gt(N_p(z, w)) c1(w) ~ zeta(3) / (4 pi^2 p) (Shiffman-Zelditch), measured
        # p K / target - 1 = 0.9 / p.  N_p decays like sech((s - s0) / 2)^p in s = log(-log r),
        # so the radii within 14 / sqrt(p) of |z| in s carry all of K.
        s0, half = math.log(-math.log(r0)), 14.0 / math.sqrt(p)
        r, meas = _c1_rule(math.exp(-math.exp(s0 + half)), math.exp(-math.exp(s0 - half)), 256)
        space = make_disc_space(p, sections.truncation_length(p, r.max()))
        n_t = 1 << (4 * space.L - 1).bit_length()
        log_r = np.log(np.concatenate([[r0], r]))
        means = _bipotential_means(space, log_r, np.zeros(r.size, dtype=int), np.arange(1, r.size + 1), n_t)
        assert abs(p * float(meas @ means) / (APERY / (4.0 * math.pi**2)) - 1.0) <= 2.0 / p


class TestProxyAndExperiments:
    def test_sodin_tsirelson_proxy_decreases(self):
        region = Annulus(0.35, 0.65)
        vals = {}
        for p in (50, 100):
            space = make_disc_space(p, sections.truncation_length(p, region.b))
            vals[p] = sodin_tsirelson_proxy(space, region)
        assert vals[100] < vals[50]

    def test_clt_rejects_degenerate_statistic(self):
        phi = TestFunction(0.35, 0.65, amplitude=0.0)
        with pytest.raises(RuntimeError):
            experiments.clt_experiment([20], phi, 40, seed=1)

    def test_tiny_support_is_not_normal(self):
        # nearly Bernoulli counts: the KS test must reject
        phi = TestFunction(0.49, 0.52)
        rep = experiments.clt_experiment([12], phi, 400, seed=8)
        ks_rows = [r for r in rep.rows if r.statistic == "ks_pvalue"]
        assert ks_rows[0].estimate < 0.01

    def test_deviation_sanity_impossible_deficit(self):
        region = Annulus(0.2, 0.7)
        area = disc.c1_area(region)
        rep = experiments.deviation_experiment([20], region, 2.0 * area, 1500, seed=3)
        freq = [r for r in rep.rows if r.statistic == "count_deviation_frequency"][0]
        assert freq.estimate < 0.01  # only the surplus side can trigger

    def test_deviation_decreases_in_p(self):
        region = Annulus(0.2, 0.7)
        area = disc.c1_area(region)
        rep = experiments.deviation_experiment([20, 40], region, 0.3 * area, 4000, seed=20260811)
        freqs = [r.estimate for r in rep.rows if r.statistic == "count_deviation_frequency"]
        assert freqs[1] <= freqs[0]
        assert rep.all_passed

    def test_log_sup_statistic_small_at_p60(self):
        region = Annulus(0.2, 0.7)
        rep = experiments.deviation_experiment([60], region, 0.5, 2000, seed=20260811)
        sup_rows = [r for r in rep.rows if r.statistic == "log_sup_deviation_frequency"]
        assert sup_rows[0].estimate < 1e-2

    def test_hole_probability_trend_small_scale(self):
        rep = experiments.hole_probability_experiment([4, 6], Annulus(0.25, 0.45), 20_000, seed=20260811)
        probs = [r.estimate for r in rep.rows if r.statistic == "hole_probability"]
        assert probs[1] < probs[0]

    def test_falls_checks_on_a_tie(self):
        # no holes and no deviation in any sample: a tie, which fails the
        # strict hole check and passes the non-strict deviation check
        region = Annulus(0.25, 0.45)
        holes = experiments.hole_probability_experiment([20, 30], region, 50, seed=3)
        dev = experiments.deviation_experiment([20, 30], region, 5.0, 50, seed=3)
        (hole_check,) = [c for c in holes.checks if c.name == "hole_probability_decreases_p20_to_p30"]
        (dev_check,) = [c for c in dev.checks if c.name == "count_deviation_decreases_p20_to_p30"]
        assert (hole_check.passed, hole_check.detail) == (False, "0.0000 -> 0.0000")
        assert (dev_check.passed, dev_check.detail) == (True, "0.0000 -> 0.0000")

    def test_expected_linear_statistic_by_parts(self, space80):
        # -int phi' n dr equals direct quadrature of phi against d n
        from numpy.polynomial.legendre import leggauss

        phi = TestFunction(0.35, 0.65)
        pred = expected_linear_statistic(space80, phi)
        x, w = leggauss(800)
        r = 0.15 * x + 0.5
        dn = np.gradient([disc.zero_counting_function(space80, ri) for ri in r], r)
        direct = float(np.dot(0.15 * w, phi.value(r) * dn))
        assert pred == pytest.approx(direct, rel=1e-4)
