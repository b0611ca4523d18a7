"""Smooth statistics: test functions, bipotential profile, variance, experiments."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from bergman_zeros import disc, sections, experiments, statistics
from bergman_zeros.config import EXPERIMENTS
from bergman_zeros.disc import Annulus, _legendre_rule, _log_deck, _log_n2, log_kernel_function, make_disc_space
from bergman_zeros.statistics import (
    APERY,
    VARIANCE_TAU,
    WINDOW_NODES,
    TestFunction,
    _bipotential_means,
    _c1_rule,
    _gtilde_fast,
    _log_beta_mean,
    expected_linear_statistic,
    laplacian_ratio,
    sodin_tsirelson_proxy,
    variance_bipotential,
    variance_leading_term,
)
from oracles import Gtilde, _gtilde_integral, _gtilde_series, _pair_blocks, bipotential_means, correlation_proxy, kernel

# angles of the per-pair oracle: the closed form is checked against it to 1e-7 relative
ORACLE_ANGLES = 8192
CUSP = (math.exp(-12.0), math.exp(-3.0))


def _pass_weights(phi: TestFunction, n_r: int):
    """The radii of a variance pass at n_r nodes, its upper-triangle pairs and their weights."""
    r, meas = _c1_rule(phi.a, phi.b, n_r)
    vec = laplacian_ratio(phi, r) * meas
    i, j = np.triu_indices(n_r)
    return r, i, j, np.where(i == j, 1.0, 2.0) * vec[i] * vec[j]


def library_pass(p: int, a: float, b: float, n_r: int) -> float:
    """The variance pass of `variance_bipotential` at n_r radial nodes."""
    r, i, j, weights = _pass_weights(TestFunction(a, b), n_r)
    return float(weights @ _bipotential_means(p, -2.0 * np.log(r), i, j)[0])


@functools.cache
def oracle_pass(p: int, a: float, b: float, n_r: int) -> float:
    """The same pass from the per-pair exponential oracle on ORACLE_ANGLES angles."""
    r, i, j, weights = _pass_weights(TestFunction(a, b), n_r)
    space = make_disc_space(p, sections.truncation_length(p, b))
    return float(weights @ bipotential_means(space, np.log(r), i, j, ORACLE_ANGLES))


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

    def test_grid_matches_scalar_kernel(self):
        # the closed-form N_p at theta = 0 (the near test; 1 on the diagonal) and at the hot-window nodes, against the
        # truncated basis sum of the oracle over the closed-form diagonals; the cusp pairs take deck terms
        for p, r in ((80, np.array([0.4, 0.5, 0.6])), (50, np.exp([-12.0, -9.0, -6.0]))):
            space = make_disc_space(p, sections.truncation_length(p, r.max()))
            i, j = np.indices((r.size, r.size)).reshape(2, -1)
            y = -2.0 * np.log(r)
            _, a, lr = _log_beta_mean(p, y[i], y[j])
            diag, _ = _log_deck(p, y)
            theta_max = np.minimum(a * np.sqrt(np.maximum(np.expm1(lr - math.log(VARIANCE_TAU) / p), 0.0)), math.pi)
            theta = np.outer(theta_max, np.square(np.append(0.0, _legendre_rule(0.0, 1.0, WINDOW_NODES)[0])))
            log_n2, k = _log_n2(p, a[:, None], lr[:, None], (diag[i] + diag[j])[:, None], theta)
            points = r[j, None] * np.exp(1j * theta)
            log_b = np.array([[kernel(space, r[n], w)[0] for w in row] for n, row in zip(i, points)])
            half_diag = 0.5 * log_kernel_function(p, r)
            direct = np.exp(log_b - (half_diag[i] + half_diag[j])[:, None])
            assert np.max(np.abs(np.sqrt(np.exp(log_n2)) - direct)) < 1e-12
            assert np.all(log_n2[i == j, 0] == 0.0)
            assert (k > 0) == (p == 50)

    @pytest.mark.parametrize("p", [40, 200])
    def test_parseval_term_is_the_theta_mean(self, p, monkeypatch):
        # with no pair near, a pair mean is its Parseval term alone: the Beta integral times its deck factors against
        # the oracle's sum of d^2 over the truncated basis; r = e^-10 takes deck terms
        space = make_disc_space(p, sections.truncation_length(p, 0.9))
        r = np.array([math.exp(-10.0), 0.2, 0.45, 0.5, 0.9])
        i, j = np.triu_indices(r.size)
        monkeypatch.setattr(statistics, "VARIANCE_TAU", 2.0)
        means, near, _ = _bipotential_means(p, -2.0 * np.log(r), i, j)
        blocks = _pair_blocks(space, np.log(r), i, j, 64)
        parseval = np.concatenate([np.sum(d * d, axis=1) * np.exp(2.0 * shift) for _, d, shift in blocks])
        assert near == 0
        assert np.max(np.abs(4.0 * math.pi**2 * means / parseval - 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "p, a, b, pinned",
        [
            (40, 0.35, 0.65, 1.768712913658045),
            (80, 0.35, 0.65, 1.5005022464557902),
            (200, 0.35, 0.65, 1.0584736837368827),
        ],
    )
    def test_matches_closed_form_pins(self, p, a, b, pinned):
        # pinned bit for bit from the closed form, and within 1e-7 of the per-pair oracle at the same radial nodes;
        # the angle grid of the FFT path gave 1.7687215252358381, 1.5005194680720781 and 1.0584760746745427, up to
        # 1.2e-5 off
        phi = TestFunction(a, b)
        space = make_disc_space(p, sections.truncation_length(p, b))
        diagnostics = {}
        value = variance_bipotential(space, phi, diagnostics)
        assert value == pinned
        assert value == pytest.approx(oracle_pass(p, a, b, diagnostics["bipotential_radial_nodes"]), rel=1e-7)
        assert diagnostics["bipotential_deck_terms"] == 0

    def test_wide_support_in_bounded_memory(self):
        # the dense (r, r', theta) grid took 2.5 GB traced for this case; the value is pinned from the closed form,
        # within 1e-7 of the per-pair oracle at the same radial nodes (the FFT path gave 0.07822989228457813)
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
        assert value == pytest.approx(0.07822961181424809, rel=1e-9)
        assert value == pytest.approx(oracle_pass(160, 0.1, 0.9, 128), rel=1e-7)
        assert diagnostics == {
            "bipotential_radial_nodes": 128,
            "bipotential_near_pairs": 2320,
            "bipotential_deck_terms": 0,
        }

    def test_bulk_hot_window_in_real_arithmetic(self):
        # p = 40 on (0.35, 0.65) is near at every pair (8 256 of 8 256), so it has the largest hot window; a warm call
        # peaked at 5.84 MB traced when each block formed a - i theta in complex128, and at 3.84 MB in float64
        phi, space = TestFunction(0.35, 0.65), make_disc_space(40, sections.truncation_length(40, 0.65))
        diagnostics = {}
        variance_bipotential(space, phi, diagnostics)
        assert diagnostics["bipotential_near_pairs"] == 8256
        tracemalloc.start()
        try:
            variance_bipotential(space, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20

    def test_bounded_memory_at_p640(self):
        # the unit rows of the FFT path peaked at 16 MB here (n_r = 512, L = 4132), a log diagonal of all nodes in one
        # array at 104 MB; the closed form reads no coefficient row
        phi = TestFunction(0.1, 0.9)
        space = make_disc_space(640, sections.truncation_length(640, phi.b))
        tracemalloc.start()
        try:
            variance_bipotential(space, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_converges_at_large_p(self):
        # the FFT path raised "did not converge" at p = 1280 (L = 7578); bip / lead measured 0.9401, 0.9672, 0.9827
        phi = TestFunction(0.1, 0.9)
        ratios = [variance_bipotential(make_disc_space(p, 1), phi) / variance_leading_term(phi, p)
                  for p in (640, 1280, 2560)]
        assert all(0.9 < x < 1.0 for x in ratios)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_pair_block_size_does_not_change_values(self, monkeypatch):
        # each pair value depends on its own radii only: blocks of 312 pairs give the same floats as the default blocks
        phi, region = TestFunction(0.35, 0.65), Annulus(0.2, 0.7)
        spaces = [make_disc_space(p, sections.truncation_length(p, phi.b)) for p in (40, 200)]

        def values():
            return [variance_bipotential(s, phi) for s in spaces] + [sodin_tsirelson_proxy(100, region)]

        default = values()
        monkeypatch.setattr(sections, "BLOCK_ENTRIES", 5000)
        sizes, beta = [], statistics._log_beta_mean
        monkeypatch.setattr(statistics, "_log_beta_mean", lambda q, y, yp: sizes.append(y.size) or beta(q, y, yp))
        assert values() == default
        assert max(sizes[:-1]) == 5000 // WINDOW_NODES  # the last call is the proxy's

    @pytest.mark.parametrize("p, a, b, n_r", [(40, 0.35, 0.65, 128), (200, 0.35, 0.65, 256), (160, 0.1, 0.9, 256)])
    def test_matches_per_pair_exponential_oracle(self, p, a, b, n_r):
        # one pass of variance_bipotential, from the closed form and from one exponential per pair and ell on
        # 8192 angles: 7.5e-10, 4.2e-9 and 7.8e-8 apart at the converged passes
        assert library_pass(p, a, b, n_r) == pytest.approx(oracle_pass(p, a, b, n_r), rel=1e-7)

    def test_cusp_matches_per_pair_oracle(self):
        # N_p in the cusp needs its deck terms (y up to 24): 4.8e-10 from the oracle with them
        phi = TestFunction(*CUSP)
        diagnostics = {}
        value = variance_bipotential(make_disc_space(50, 1), phi, diagnostics)
        assert value == pytest.approx(oracle_pass(50, *CUSP, diagnostics["bipotential_radial_nodes"]), rel=1e-7)
        assert diagnostics["bipotential_deck_terms"] > 0

    def test_cusp_fails_without_the_deck_terms(self, monkeypatch):
        # the k = 0 term alone is 9.2e-4 off in the cusp
        for module in (disc, statistics):
            monkeypatch.setattr(module, "_log_deck", lambda q, s: (np.zeros(np.shape(s)), 0))
        assert library_pass(50, *CUSP, 128) != pytest.approx(oracle_pass(50, *CUSP, 128), rel=1e-7)

    @pytest.mark.parametrize("p", [40, 80, 120, 200])
    def test_no_deck_terms_in_the_bulk(self, p):
        diagnostics = {}
        variance_bipotential(make_disc_space(p, 1), TestFunction(0.35, 0.65), diagnostics)
        assert diagnostics["bipotential_deck_terms"] == 0

    @pytest.mark.parametrize("p", [5, 30, 100])
    def test_proxy_within_its_deck_bound(self, p):
        # the Beta integral leaves out the deck terms, at most 2 (a / pi) sqrt(p) (1 + pi^2 / a^2)^(1 - p/2) of the
        # value: 0.51 at p = 5 (3.6e-2 measured), 5.2e-7 at p = 30 (1.1e-11); 1e-13 is the grid oracle's rounding
        region = Annulus(0.35, 0.65)
        space = make_disc_space(p, sections.truncation_length(p, region.b))
        a = -2.0 * math.log(region.a)
        bound = 2.0 * a / math.pi * math.sqrt(p) * (1.0 + (math.pi / a) ** 2) ** (1.0 - p / 2)
        assert abs(sodin_tsirelson_proxy(p, region) / correlation_proxy(space, region) - 1.0) <= bound + 1e-13

    def test_proxy_matches_per_pair_exponential_oracle(self):
        region = Annulus(0.2, 0.7)
        space = make_disc_space(100, sections.truncation_length(100, region.b))
        assert sodin_tsirelson_proxy(100, region) == pytest.approx(correlation_proxy(space, region), rel=1e-13)

    @pytest.mark.parametrize("p", [50, 200, 800])
    @pytest.mark.parametrize("r0", [0.4, 0.5, 0.6])
    def test_local_bipotential_constant_is_zeta3(self, p, r0):
        # K(z) = int Gt(N_p(z, w)) c1(w) ~ zeta(3) / (4 pi^2 p) (Shiffman-Zelditch), measured
        # p K / target - 1 = 0.9 / p.  N_p decays like sech((s - s0) / 2)^p in s = log(-log r),
        # so the radii within 14 / sqrt(p) of |z| in s carry all of K.
        s0, half = math.log(-math.log(r0)), 14.0 / math.sqrt(p)
        r, meas = _c1_rule(math.exp(-math.exp(s0 + half)), math.exp(-math.exp(s0 - half)), 256)
        y = -2.0 * np.log(np.concatenate([[r0], r]))
        pairs = np.zeros(r.size, dtype=int), np.arange(1, r.size + 1)
        means, _, _ = _bipotential_means(p, y, *pairs)
        assert abs(p * float(meas @ means) / (APERY / (4.0 * math.pi**2)) - 1.0) <= 2.0 / p


class TestProxyAndExperiments:
    def test_sodin_tsirelson_proxy_decreases(self):
        region = Annulus(0.35, 0.65)
        vals = {}
        for p in (50, 100):
            vals[p] = sodin_tsirelson_proxy(p, region)
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
        # the shipped delta and p: every frequency is nonzero, and each fall clears 3 SE
        rep = experiments.deviation_experiment([10, 20, 40], Annulus(0.2, 0.7), 0.1, 4000, seed=20260811)
        freqs = [r.estimate for r in rep.rows]
        assert freqs[0] > freqs[1] > freqs[2] > 0.0
        assert len(rep.checks) == 2 and rep.all_passed

    def test_deviation_fall_within_noise_fails(self):
        # 200 samples: the frequency falls, 0.245 -> 0.170, by less than 3 SE of the difference
        rep = experiments.deviation_experiment([20, 25], Annulus(0.2, 0.7), 0.1, 200, seed=3)
        lo, hi = (r.estimate for r in rep.rows)
        (check,) = rep.checks
        assert hi < lo
        assert (check.passed, check.detail) == (False, "0.2450 -> 0.1700, fall 0.0750 vs 3 SE = 0.1211")

    def test_hole_probability_trend_small_scale(self):
        rep = experiments.hole_probability_experiment([4, 6], Annulus(0.25, 0.45), 20_000, seed=20260811)
        probs = [r.estimate for r in rep.rows if r.statistic == "hole_probability"]
        assert probs[1] < probs[0]

    def test_hole_fall_within_noise_fails(self):
        # 200 samples: the hole probability falls, 0.130 -> 0.060, by less than 3 SE of the difference
        rep = experiments.hole_probability_experiment([6, 8], Annulus(0.25, 0.45), 200, seed=1)
        lo, hi = (r.estimate for r in rep.rows if r.statistic == "hole_probability")
        (check,) = rep.checks
        assert hi < lo
        assert (check.passed, check.detail) == (False, "0.1300 -> 0.0600, fall 0.0700 vs 3 SE = 0.0873")

    def test_falls_checks_on_a_tie(self):
        # no holes and no deviation in any sample: a tie, which fails the
        # hole check and the deviation check alike; a frequency of 0 in 50
        # samples reads stderr 1 / 50
        region = Annulus(0.25, 0.45)
        holes = experiments.hole_probability_experiment([20, 30], region, 50, seed=3)
        dev = experiments.deviation_experiment([20, 30], region, 5.0, 50, seed=3)
        assert [(r.estimate, r.stderr) for r in holes.rows] == [(0.0, 1 / 50)] * 2
        (hole_check,) = [c for c in holes.checks if c.name == "hole_probability_decreases_p20_to_p30"]
        (dev_check,) = [c for c in dev.checks if c.name == "count_deviation_decreases_p20_to_p30"]
        assert (hole_check.passed, hole_check.detail) == (False, "0.0000 -> 0.0000, fall 0.0000 vs 3 SE = 0.0849")
        assert (dev_check.passed, dev_check.detail) == (False, "0.0000 -> 0.0000, fall 0.0000 vs 3 SE = 0.0849")

    def test_expected_linear_statistic_by_parts(self):
        # -int phi' n dr equals direct quadrature of phi against d n
        from numpy.polynomial.legendre import leggauss

        phi = TestFunction(0.35, 0.65)
        pred = expected_linear_statistic(80, phi)
        x, w = leggauss(800)
        r = 0.15 * x + 0.5
        dn = np.gradient([disc.zero_counting_function(80, ri) for ri in r], r)
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
