"""Smooth statistics: test functions, bipotential profile, variance, experiments."""

import math
import tracemalloc

import numpy as np
import pytest

from bergman_zeros import disc, sections, experiments
from bergman_zeros.config import EXPERIMENTS
from bergman_zeros.disc import Annulus, make_disc_space
from bergman_zeros.statistics import (
    APERY,
    TestFunction,
    _angular_squares,
    _bipotential_means,
    _c1_rule,
    _gtilde_fast,
    _theta_mean,
    _unit_rows,
    expected_linear_statistic,
    laplacian_ratio,
    sodin_tsirelson_proxy,
    variance_bipotential,
    variance_leading_term,
)
from oracles import Gtilde, _gtilde_integral, _gtilde_series, bipotential_means, correlation_proxy


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
        phi = TestFunction(0.3, 0.6)
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
        fast = _gtilde_fast(np.square(ts))
        slow = np.array([Gtilde(t) for t in ts])
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            Gtilde(1.5)
        with pytest.raises(ValueError):
            Gtilde(-0.1)


class TestVariance:
    def test_nonnegative_and_converged(self, space80):
        phi = TestFunction(0.35, 0.65)
        v = variance_bipotential(space80, phi)
        assert v > 0.0

    def test_leading_term_scalings(self):
        phi = TestFunction(0.35, 0.65)
        assert variance_leading_term(phi, 80) == pytest.approx(0.5 * variance_leading_term(phi, 40), rel=1e-12)

    def test_apery_constant(self):
        assert APERY == pytest.approx(1.202056903159594, abs=1e-15)
        # zeta(3) from scratch
        assert APERY == pytest.approx(sum(1.0 / k**3 for k in range(1, 400_000)), rel=1e-10)

    def test_grid_matches_scalar_kernel(self, space80):
        r = np.array([0.4, 0.5, 0.6])
        i, j = np.indices((3, 3)).reshape(2, -1)
        for n_t in (16, 64, 512):  # folded (n_t < L) and zero-padded (n_t > L)
            [(_, t2)] = _angular_squares(_unit_rows(space80, np.log(r)), i, j, n_t)
            thetas = 2.0 * np.pi * np.arange(n_t // 2 + 1) / n_t
            direct = disc.normalized_kernel(space80, r[i, None], r[j, None] * np.exp(1j * thetas))
            assert np.max(np.abs(np.sqrt(t2) - direct)) < 1e-12

    @pytest.mark.parametrize("p", [40, 200])
    def test_parseval_term_is_the_theta_mean(self, p):
        # the grid mean of N_p^2 over n_t >= 4L angles has no aliasing: it is sum_l (u_l(r) u_l(r'))^2
        space = make_disc_space(p, sections.truncation_length(p, 0.9))
        r = np.array([0.2, 0.45, 0.5, 0.9])
        i, j = np.triu_indices(r.size)
        n_t = 1 << (4 * space.L - 1).bit_length()
        u = _unit_rows(space, np.log(r))
        [(_, t2)] = _angular_squares(u, i, j, n_t)
        parseval = (np.square(u) @ np.square(u).T)[i, j]
        assert np.max(np.abs(_theta_mean(t2, n_t) / parseval - 1.0)) < 1e-12

    @pytest.mark.parametrize("p", [40, 200])
    def test_unit_rows_have_unit_norm(self, p):
        # each row is scaled by its own norm: 4.4e-16 at p = 200 and 1.1e-15 at p = 640, where a norm from the
        # log diagonal left 2.4e-14 and 8.7e-14
        space = make_disc_space(p, sections.truncation_length(p, 0.9))
        u = _unit_rows(space, np.log(np.linspace(0.05, 0.9, 40)))
        assert np.max(np.abs(np.sum(u * u, axis=1) - 1.0)) < 1e-13

    @pytest.mark.parametrize("p", [40, 200])
    def test_gram_value_is_the_first_angle(self, p):
        # N_p at theta = 0, the near test, is the Gram matrix u u^T; the angle grid starts at theta = 0
        space = make_disc_space(p, sections.truncation_length(p, 0.9))
        r = np.linspace(0.2, 0.9, 12)
        i, j = np.triu_indices(r.size)
        u = _unit_rows(space, np.log(r))
        t2 = np.concatenate([t2 for _, t2 in _angular_squares(u, i, j, 64)])
        assert np.max(np.abs(np.sqrt(t2[:, 0]) - (u @ u.T)[i, j])) < 1e-13

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
        assert diagnostics == {"bipotential_radial_nodes": 256, "bipotential_near_pairs": 9151}

    def test_unit_rows_in_bounded_memory(self):
        # a log diagonal of all 512 radial nodes in one array peaked at 104 MB traced here (L = 4132); the rows
        # built in place and scaled by their own largest term and norm peak at their own 16 MB
        phi = TestFunction(0.1, 0.9)
        space = make_disc_space(640, sections.truncation_length(640, phi.b))
        r, _ = _c1_rule(phi.a, phi.b, 512)
        tracemalloc.start()
        try:
            _unit_rows(space, np.log(r))
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
        blocks = _angular_squares(_unit_rows(spaces[1], np.log([0.4, 0.5, 0.6])), *np.triu_indices(3), 1024)
        assert [len(t2) for _, t2 in blocks] == [4, 2]
        assert values() == default

    @pytest.mark.parametrize("p, a, b, n_r", [(40, 0.35, 0.65, 128), (200, 0.35, 0.65, 256), (160, 0.1, 0.9, 256)])
    def test_matches_per_pair_exponential_oracle(self, p, a, b, n_r):
        # the final pass of variance_bipotential, from the unit rows and from one exponential per pair and ell;
        # single pair means differ by up to 1.7e-13 relative, as much as the oracle's own error against a
        # 40-digit evaluation of the same inputs (1.8e-13 at p = 200, the unit rows 3.6e-14)
        phi = TestFunction(a, b)
        space = make_disc_space(p, sections.truncation_length(p, b))
        r, meas = _c1_rule(a, b, n_r)
        vec = laplacian_ratio(phi, r) * meas
        i, j = np.triu_indices(n_r)
        weights = np.where(i == j, 1.0, 2.0) * vec[i] * vec[j]
        means, _ = _bipotential_means(_unit_rows(space, np.log(r)), i, j, 4 * n_r)
        oracle = bipotential_means(space, np.log(r), i, j, 4 * n_r)
        assert weights @ means == pytest.approx(weights @ oracle, rel=1e-13)

    def test_proxy_matches_per_pair_exponential_oracle(self):
        region = Annulus(0.2, 0.7)
        space = make_disc_space(100, sections.truncation_length(100, region.b))
        assert sodin_tsirelson_proxy(space, region) == pytest.approx(correlation_proxy(space, region), rel=1e-13)

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
        pairs = np.zeros(r.size, dtype=int), np.arange(1, r.size + 1)
        means, _ = _bipotential_means(_unit_rows(space, log_r), *pairs, n_t)
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
        # a support too thin to hold a zero: Y(phi) is 0 on every sample
        phi = TestFunction(0.5, 0.5 + 1e-9)
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


# one small run of every kind; model-kernel at rho' = 4 has no prediction for B(0, 0)
SMALL_RUNS = [
    ("plateau", {"p": [20]}),
    ("sup", {"p": [50]}),
    ("model-kernel", {"rho_prime": 4, "curvature": [(0, 2, 2.0)], "max_deg": 6}),
    ("l1log", {"p": [18], "annulus": Annulus(0.3, 0.9)}),
    ("kernel-decay", {"p": 100, "annulus": Annulus(0.3, 0.7), "n_pairs": 120}),
    ("equidistribution", {"p": [20, 30], "annulus": Annulus(0.3, 0.6), "samples": 50}),
    ("holes", {"p": [4, 6], "annulus": Annulus(0.25, 0.45), "samples": 200}),
    ("deviation", {"p": [15], "annulus": Annulus(0.25, 0.6), "delta": 0.4, "samples": 200}),
    ("clt", {"p": [30], "testfunction": TestFunction(0.35, 0.65), "samples": 60}),
    ("variance", {"p": [30], "testfunction": TestFunction(0.35, 0.65), "samples": 60}),
]


class TestStandardErrorChecks:
    def test_small_runs_cover_every_kind(self):
        assert sorted(kind for kind, _ in SMALL_RUNS) == sorted(EXPERIMENTS)

    @pytest.mark.parametrize("kind, params", SMALL_RUNS, ids=[kind for kind, _ in SMALL_RUNS])
    def test_deviation_is_distance_to_prediction(self, kind, params):
        report = getattr(experiments, EXPERIMENTS[kind].driver)(**params, seed=3)
        for row in report.rows:
            if row.prediction is None:
                assert row.deviation is None, row
            else:
                assert row.deviation == abs(row.estimate - row.prediction), row

    def test_variance_se_of_standard_normals(self):
        # the variance of s^2 for N(0, 1) samples is 2 / (n - 1)
        n = 100_000
        var, se = experiments._variance_with_se(np.random.default_rng(5).standard_normal(n))
        assert var == pytest.approx(1.0, abs=0.02)
        assert se == pytest.approx(math.sqrt(2.0 / (n - 1)), rel=0.03)

    def test_variance_check_fails_a_bipotential_ten_percent_high(self, monkeypatch):
        # criterion 08's run: |MC - bipotential| is 0.189 and 0.162 against 3 SE = 0.164 and 0.138;
        # a tolerance of 15 % of the bipotential (0.292 and 0.248) would pass it
        bipotential = experiments.variance_bipotential

        def high(space, phi, diagnostics=None):
            return 1.1 * bipotential(space, phi, diagnostics)

        monkeypatch.setattr(experiments, "variance_bipotential", high)
        report = experiments.variance_experiment([40, 80], TestFunction(0.35, 0.65), 2000, seed=20260811, threads=2)
        passed = {c.name: c.passed for c in report.checks}
        assert not passed["variance_mc_matches_bipotential_p40"]
        assert not passed["variance_mc_matches_bipotential_p80"]
