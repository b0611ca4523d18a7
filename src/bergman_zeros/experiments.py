"""Experiment drivers verifying the asymptotic laws at desk scale.

Each driver is a pure function of its parameters and a seed: rows come
out in a fixed order, the coefficient rows of a Monte Carlo run at p are
drawn in sample order from the one stream (seed, p), or from (seed,) for
all p at once when paired, and thread count never changes any output
byte (the draw comes before the work is cut into fixed-size chunks;
threads only decide who runs a chunk).  Every Monte Carlo driver runs
through `_monte_carlo` and records the truncation length of each p in
`report.diagnostics`.

The driver signatures are the experiment table: every parameter but
`seed` and `threads` is a config key of the same name, its annotation
gives the key's type and its default the key's default
(`config.EXPERIMENTS` reads them from here).  A Monte Carlo estimate with
an exact prediction is checked within 3 of its own standard errors
(`StatsReport.check_within_se`), and a value that must fall in p falls by
more than 3 standard errors of the difference between neighbouring rows
(`_falls`); any other threshold is a module constant beside its driver,
not a config key.  In the multi-p drivers `p` is the
ascending list of tensor powers; the loop over it rebinds `p` to one
power.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

from . import disc, sections
from .disc import Annulus, DiscSpace
from .report import StatsReport
from .statistics import (
    TestFunction,
    expected_linear_statistic,
    sodin_tsirelson_proxy,
    variance_bipotential,
    variance_leading_term,
)

__all__ = [
    "clt_experiment",
    "deviation_experiment",
    "equidistribution_experiment",
    "hole_probability_experiment",
    "kernel_decay_experiment",
    "l1log_experiment",
    "model_kernel_experiment",
    "plateau_experiment",
    "sup_experiment",
]

# Fixed work-partition sizes: identical batched calls of the winding
# engine and the zero finder regardless of the thread count.
# The drivers read them when they run, so a test can shrink them.
COUNT_CHUNK = 4096
ROOT_CHUNK = 64


def _space_for(p: int, r_max: float) -> DiscSpace:
    return disc.make_disc_space(p, sections.truncation_length(p, r_max))


def _draw(
    ps: Sequence[int], r_max: float, samples: int, seed: int, diagnostics: dict, paired: bool = False
) -> Iterator[tuple[int, DiscSpace, np.ndarray]]:
    """For each p in turn: p, its space truncated for radius r_max, and one coefficient row per sample.

    The rows at p are one `sections.sample_etas` draw from the stream
    (seed, p).  When paired, one draw from the stream (seed,) at the
    largest truncation length serves every p: the rows at p are its first
    L columns, so every p sees the same leading coefficients.  Sets
    diagnostics[p] to {"truncation_length": L}.
    """
    if samples < 2:  # every estimate needs a sample variance
        raise ValueError(f"samples must be at least 2, got {samples}")
    spaces = [_space_for(p, r_max) for p in ps]
    if paired:
        shared = sections.sample_etas(max(spaces, key=lambda space: space.L), seed, (), samples)
    for p, space in zip(ps, spaces):
        diagnostics[p] = {"truncation_length": space.L}
        etas = shared[:, : space.L] if paired else sections.sample_etas(space, seed, (p,), samples)
        yield p, space, etas


def _monte_carlo(
    report: StatsReport,
    ps: Sequence[int],
    r_max: float,
    samples: int,
    threads: int,
    rows_fn: Callable[[DiscSpace, np.ndarray], tuple[np.ndarray, ...]],
    chunk: int,
    paired: bool = False,
) -> Iterator[tuple]:
    """For each p in turn: p, its space, and the arrays of rows_fn over all of the p's coefficient rows.

    The rows come from `_draw` at report.seed, which records
    report.diagnostics[p].  rows_fn(space, rows) returns a tuple of arrays
    with one entry per row; it runs on fixed chunks of `chunk` rows, on
    `threads` pool threads, and each array is joined in row order.
    """
    for p, space, etas in _draw(ps, r_max, samples, report.seed, report.diagnostics, paired):
        starts = range(0, samples, chunk)

        def run(lo: int) -> tuple[np.ndarray, ...]:
            return rows_fn(space, etas[lo : lo + chunk])

        if threads <= 1 or len(starts) <= 1:
            parts = [run(lo) for lo in starts]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(run, starts))
        yield (p, space, *(np.concatenate(arrays) for arrays in zip(*parts)))


def _zero_counts(region: Annulus) -> Callable[[DiscSpace, np.ndarray], tuple[np.ndarray]]:
    """Rows function of the zero count: `sections.count_zeros_batch` of every row in region."""
    return lambda space, etas: (sections.count_zeros_batch(space, etas, region),)


def _falls(report: StatsReport, name: str, statistic: str, fmt: str = ".4f", value: str = "estimate") -> None:
    """One check {name}_p{p_lo}_to_p{p_hi} per neighbouring pair of the report's statistic rows, in p order.

    It passes when the rows' value (their estimate, or their deviation)
    falls by more than 3 standard errors of the difference, the two rows'
    stderr in quadrature; a row without a stderr is exact, so that between
    exact rows any fall passes.  A tie, or a fall within the noise, fails.
    """
    rows = [row for row in report.rows if row.statistic == statistic]
    for lo, hi in zip(rows, rows[1:]):
        a, b = getattr(lo, value), getattr(hi, value)
        bound = 3.0 * math.hypot(lo.stderr or 0.0, hi.stderr or 0.0)
        report.check(
            f"{name}_p{lo.p}_to_p{hi.p}",
            a - b > bound,
            f"{a:{fmt}} -> {b:{fmt}}, fall {a - b:{fmt}} vs 3 SE = {bound:{fmt}}",
        )


def _frequency_row(report: StatsReport, p: int, statistic: str, hits: np.ndarray) -> None:
    """Append the row of the frequency of hits (one bool per sample) at p.

    Its stderr is binomial, with f (1 - f) held at 1 / n or more, so that a
    frequency of 0 reads 0 with stderr 1 / n: 3 SE is then the rule-of-three
    bound on an event seen in none of n samples.
    """
    n = hits.size
    freq = float(np.mean(hits))
    se = math.sqrt(max(freq * (1 - freq), 1.0 / n) / n)
    report.row(p, statistic, freq, stderr=se, n_samples=n)


# ---------------------------------------------------------------------------
# deterministic kernel experiments


# plateau: PLATEAU_N_GRID radii of [PLATEAU_R_MIN, PLATEAU_R_MAX], even in log(-log r)
PLATEAU_R_MIN = 0.3
PLATEAU_R_MAX = 0.9
PLATEAU_N_GRID = 512
PLATEAU_TOLERANCE = 1e-3


def plateau_experiment(p: Sequence[int], seed: int = 0) -> StatsReport:
    """Sup over [PLATEAU_R_MIN, PLATEAU_R_MAX] of |2 pi B_p / (p-1) - 1| for each p."""
    report = StatsReport("plateau", seed)
    t = np.linspace(math.log(-math.log(PLATEAU_R_MAX)), math.log(-math.log(PLATEAU_R_MIN)), PLATEAU_N_GRID)
    radii = np.exp(-np.exp(t))
    for p in list(p):
        plateau = (p - 1) / (2.0 * math.pi)
        sup_err = float(np.max(np.abs(disc.kernel_function(p, radii) / plateau - 1.0)))
        report.row(p, "plateau_sup_relative_error", sup_err, prediction=0.0)
        report.check(
            f"plateau_error_p{p}",
            sup_err <= PLATEAU_TOLERANCE,
            f"sup error {sup_err:.3e} vs tolerance {PLATEAU_TOLERANCE:.0e}",
        )
    return report


SUP_TOLERANCE = 0.25  # largest |ratio - 1| of sup B_p to (p / 2 pi)^(3/2)


def sup_experiment(p: Sequence[int], seed: int = 0) -> StatsReport:
    """Global sup of B_p against the (p / 2 pi)^(3/2) law."""
    report = StatsReport("sup", seed)
    for p in list(p):
        neg_log_r, value = disc.sup_kernel(p)
        error = report.row(p, "sup_ratio_to_power_law", value * (2.0 * math.pi / p) ** 1.5, prediction=1.0).deviation
        report.row(p, "sup_maximizer_neg_log_radius", neg_log_r)
        report.check(f"sup_ratio_p{p}", error <= SUP_TOLERANCE, f"|ratio - 1| = {error:.4f} vs {SUP_TOLERANCE}")
    _falls(report, "sup_ratio_improves", "sup_ratio_to_power_law", value="deviation")
    return report


PARITY_TOLERANCE = 1e-5  # largest odd jet


def model_kernel_experiment(
    rho_prime: int,
    curvature: Sequence[tuple[int, int, float]],
    max_deg: int = 12,
    seed: int = 0,
) -> StatsReport:
    """Model kernel at a curvature-vanishing point: B(0,0) and parity jets.

    A radial psi = c |z|^(rho' - 2) has phi = kappa |z|^rho' with
    kappa = 2c / rho'^2, so the monomials are orthogonal and
    B(0,0) = 1 / int e^(-phi) dA = rho' kappa^(2/rho') / (2 pi Gamma(2/rho')),
    c / 2 pi at rho' = 2.  c is read from the curvature, not from the
    solved potential, so that a wrong potential fails the check.
    """
    from . import model

    report = StatsReport("model-kernel", seed)
    curv = model.HomogeneousCurvature.from_monomials(rho_prime, curvature)
    pp = model.solve_potential(curv)
    basis = model.gram_matrix(pp, max_deg=max_deg)
    value = model.model_bergman_at_zero(basis)
    prediction = None
    if curv.radial:
        kappa = 2.0 * float(curv.psi_coeffs[0]) / rho_prime**2
        prediction = rho_prime * kappa ** (2.0 / rho_prime) / (2.0 * math.pi * math.gamma(2.0 / rho_prime))
    report.row(None, "model_kernel_at_zero", value, prediction=prediction)
    jets = model.kernel_parity_and_jets(basis)
    odd = max(abs(v) for (i, j), v in jets.items() if (i + j) % 2 == 1)
    report.row(None, "parity_max_odd_jet", odd, prediction=0.0)
    report.check("model_kernel_positive", value > 0.0, f"B(0,0) = {value:.6g}")
    if prediction is not None:
        rel = abs(value / prediction - 1.0)
        report.check("model_kernel_radial_curvature", rel <= 1e-10, f"relative error {rel:.2e}")
    report.check("model_kernel_parity", odd <= PARITY_TOLERANCE, f"max odd jet {odd:.2e}")
    return report


def l1log_experiment(p: Sequence[int], annulus: Annulus, seed: int = 0) -> StatsReport:
    """L1 norm of log B_p over the annulus, against the plateau substitution."""
    report = StatsReport("l1log", seed)
    values: dict[int, float] = {}
    area = disc.hyperbolic_area(annulus)
    ps = list(p)
    for p in ps:
        val = disc.log_bergman_l1(p, annulus)
        values[p] = val
        pred = abs(math.log((p - 1) / (2.0 * math.pi))) * area
        report.row(p, "log_kernel_l1", val, prediction=pred)
    # C log p bound with the natural constant: the plateau value is
    # |log((p-1)/2pi)| * area, so area * (1 + slack) dominates value/log p
    for p in ps:
        if p <= 2:
            continue
        bound = 1.05 * area * math.log(p)
        report.check(f"l1_log_bound_p{p}", values[p] <= bound, f"value {values[p]:.4f} vs C log p = {bound:.4f}")
    for p_lo, p_hi in zip(ps, ps[1:]):
        if p_hi == 2 * p_lo and p_lo > 8:
            # doubling p grows the plateau value by the predicted log ratio
            ratio = values[p_hi] / values[p_lo]
            bound = 1.05 * abs(math.log((2 * p_lo - 1) / (2 * math.pi))) / abs(
                math.log((p_lo - 1) / (2 * math.pi))
            )
            report.check(
                f"l1_log_growth_p{p_lo}_to_p{p_hi}",
                ratio <= bound,
                f"growth ratio {ratio:.4f} vs plateau-predicted bound {bound:.4f}",
            )
    return report


FAR_K = 2  # far pairs sit beyond sqrt(12 FAR_K log p / p)
FAR_TOLERANCE = 1e-3  # largest N_p of a far pair
SECH_ROUNDING = 1e-13  # rounding of log N_p and of p log cosh(d / sqrt 2), relative to |log N_p|


def _deck_excess(p: int, a, theta):
    """Bound on |D(p, s) - 1|, s = a - i theta, rising in a and |theta| < pi.

    On each side of k = 0 the deck terms |s / (s + 2 pi i k)|^p are at most the first plus an integral,
    (|s| / w)^p (2 + a^2 / 2 pi^2), w^2 = a^2 + (2 pi - |theta|)^2."""
    b = 2.0 * math.pi - np.abs(theta)
    return (4.0 + a * a / math.pi**2) * ((a * a + theta * theta) / (a * a + b * b)) ** (0.5 * p)


def kernel_decay_experiment(
    p: int,
    annulus: Annulus,
    n_pairs: int = 400,
    seed: int = 0,
) -> StatsReport:
    """Normalized-kernel decay: Gaussian near-regime slope, far-regime bound and the sech-power identity.

    Near pairs have hyperbolic distance below sqrt(12 log p / p); the
    regression of -log N_p on p d^2/4 over them should have slope near 1.
    Far pairs sit beyond sqrt(12 FAR_K log p / p), where N_p must be tiny.
    The pairs are five array draws from the stream (seed, (p, 7001)), in
    this order: r0 uniform on (a, b), theta0 uniform on (0, 2 pi), the move
    (integers, 0 angular and 1 radial), its sign (+ where a uniform on
    (0, 1) is below 0.5), and d, uniform on (0.08, d_near) for even pairs
    and on (d_far, 1.5 d_far) for odd ones.  They are labelled by their
    measured `poincare_distance`: in the cusp an angular move past pi wraps,
    and a pair drawn far may land near.
    Every pair must meet N_p = cosh(d / sqrt 2)^(-p), the k = 0 term of the Poincare series, up to
    the other deck terms (`_deck_excess` at the pair's larger y) and SECH_ROUNDING.
    """
    report = StatsReport("kernel-decay", seed)
    rng = sections.section_stream(seed, (p, 7001))
    d_near = math.sqrt(12.0) * math.sqrt(math.log(p) / p)
    d_far = math.sqrt(12.0 * FAR_K) * math.sqrt(math.log(p) / p)

    n = max(n_pairs, 0)
    r0 = rng.uniform(annulus.a, annulus.b, n)
    theta0 = rng.uniform(0.0, 2.0 * math.pi, n)
    angular = rng.integers(0, 2, n) == 0
    sign = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    even = np.arange(n) % 2 == 0
    d = rng.uniform(np.where(even, 0.08, d_far), np.where(even, d_near, 1.5 * d_far))
    s = -np.log(r0)
    theta1 = theta0 + sign * 2.0 * s * np.sinh(d / math.sqrt(2.0))  # an angular move
    # a radial move goes inward, so that far pairs reach the cusp's deck terms, and outward where inward passes the
    # sup point y = 2 s = p, past which N_p no longer decays with d (`disc.normalized_kernel`)
    s2 = s * np.exp(math.sqrt(2.0) * d)
    s2 = np.where(2.0 * s2 > p, s * s / s2, s2)
    z0s = r0 * np.exp(1j * theta0)
    z1s = np.where(angular, r0 * np.exp(1j * theta1), np.exp(-s2) * np.exp(1j * theta0))
    npv = disc.normalized_kernel(p, z0s, z1s)
    dists = disc.poincare_distance(z0s, z1s)
    near = (dists < d_near) & (npv > 0.0)
    xs, ys = p * dists[near] ** 2 / 4.0, -np.log(npv[near])
    far_vals = npv[dists >= d_far]
    if far_vals.size == 0:
        raise ValueError(f"far regime empty: no pair of {n_pairs} lies {d_far:.4g} or more apart; raise n_pairs")
    if len(xs) < 2:
        raise ValueError(
            f"near regime empty: {len(xs)} near pairs with N_p > 0, the slope fit needs 2; raise n_pairs"
        )
    slope = float(np.polyfit(xs, ys, 1)[0])
    far_max = float(np.max(far_vals))
    report.row(p, "near_regime_slope", slope, prediction=1.0, n_samples=len(xs))
    report.row(p, "far_regime_max_normalized_kernel", far_max, prediction=0.0, n_samples=len(far_vals))
    report.check("decay_slope_window", bool(0.9 <= slope <= 1.1), f"slope {slope:.4f}")
    report.check("decay_far_bound", far_max <= FAR_TOLERANCE, f"max far N_p {far_max:.3e}")
    # N_p = cosh(d / sqrt 2)^(-p) |D(p, a - i theta)| / sqrt(D(p, y) D(p, y')), each log at most -log(1 - excess)
    y0, y1, theta = disc._cusp_coordinates(z0s, z1s)
    excess = _deck_excess(p, np.maximum(y0, y1), theta)
    with np.errstate(divide="ignore"):  # log 0 where N_p underflows; an excess of 1 or more bounds nothing
        log_n = np.log(npv)
        bound = SECH_ROUNDING * np.abs(log_n) - 2.0 * np.log1p(-np.minimum(excess, 1.0))
    gap = np.abs(log_n + 0.5 * p * np.log1p(np.sinh(dists / math.sqrt(2.0)) ** 2))  # log cosh, exact for small d
    report.row(p, "max_sech_power_log_gap", float(np.max(gap)), prediction=0.0, n_samples=n_pairs)
    report.check("decay_sech_power_identity", bool(np.all(gap <= bound)), f"max gap / bound {np.max(gap / bound):.3e}")
    return report


# ---------------------------------------------------------------------------
# Monte Carlo experiments


def equidistribution_experiment(
    p: Sequence[int],
    annulus: Annulus,
    samples: int,
    seed: int,
    paired_seeds: bool = False,
    threads: int = 1,
) -> StatsReport:
    """Zero-count equidistribution against the curvature measure of the annulus.

    Reports the mean count over p against the c1 area, and checks the
    mean count against the exact expected zero measure of the truncated
    section within 3 standard errors.  That measure is p times the area
    up to a finite-p bias (below 2e-15 on (0.2, 0.7) at p = 50 to 200), so
    the check holds the area law too.
    """
    report = StatsReport("equidistribution", seed)
    area = disc.c1_area(annulus)
    for p, _, counts in _monte_carlo(
        report, list(p), annulus.b, samples, threads, _zero_counts(annulus), COUNT_CHUNK, paired_seeds
    ):
        mean = float(np.mean(counts))
        se = float(np.std(counts, ddof=1) / math.sqrt(samples))
        report.row(p, "mean_count_over_p", mean / p, stderr=se / p, prediction=area, n_samples=samples)
        exact = disc.expected_zero_measure(p, annulus)
        row = report.row(p, "mean_count", mean, stderr=se, prediction=exact, n_samples=samples)
        report.check_within_se(f"expected_measure_p{p}", row)
    return report


# what the zero finder had to do, counted per row and summed into
# diagnostics[p]: rows solved by the oracle fallback, unconverged roots,
# and merged roots
_ROOT_NOTES = ("fallback_rows", "newton_nonconvergence", "merges")


def _linear_statistics(phi: TestFunction) -> Callable[[DiscSpace, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Rows function of the linear statistic: Y(phi) of every row, and each row's _ROOT_NOTES counts."""

    def rows_fn(space: DiscSpace, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        zs = sections.find_zeros_batch(space, etas, phi.support)
        m = etas.shape[0]
        ys = np.bincount(zs.row, weights=zs.mult * phi.value(np.abs(zs.z)), minlength=m)
        merges = np.bincount(zs.row, weights=zs.mult - 1, minlength=m)
        return ys, np.column_stack([zs.fallback, zs.unconverged, merges]).astype(np.int64)

    return rows_fn


KS_LEVEL = 0.01  # smallest KS p-value of the standardized linear statistic against N(0, 1)


def clt_experiment(
    p: Sequence[int],
    testfunction: TestFunction,
    samples: int,
    seed: int,
    threads: int = 1,
) -> StatsReport:
    """Asymptotic normality of the standardized linear statistic.

    Standardization uses the sample mean and variance (the limit theorem
    normalizes by the true variance, which is what the sample estimates).
    The sample mean is checked against the exact expectation within 3
    standard errors.  Also reports sup_z int N_p(z, w) c1(w), the
    correlation-summability diagnostic behind the theorem, which must
    decrease in p.
    """
    from scipy import stats as sps

    report = StatsReport("clt", seed)
    for p, _, ys, notes in _monte_carlo(
        report, list(p), testfunction.b, samples, threads, _linear_statistics(testfunction), ROOT_CHUNK
    ):
        report.diagnostics[p].update(zip(_ROOT_NOTES, notes.sum(axis=0).tolist()))
        sd = float(np.std(ys, ddof=1))
        if sd == 0.0:
            raise RuntimeError(
                "degenerate linear statistic (all samples equal); enlarge the support or p"
            )
        standardized = (ys - float(np.mean(ys))) / sd
        ks_stat, ks_p = sps.kstest(standardized, "norm")
        mean_pred = expected_linear_statistic(p, testfunction)
        mean_row = report.row(
            p, "linstat_mean", float(np.mean(ys)),
            stderr=sd / math.sqrt(samples), prediction=mean_pred, n_samples=samples,
        )
        report.row(p, "ks_statistic", float(ks_stat), n_samples=samples)
        report.row(p, "ks_pvalue", float(ks_p), n_samples=samples)
        report.row(p, "correlation_sum_diagnostic", sodin_tsirelson_proxy(p, testfunction.support))
        report.check_within_se(f"linstat_mean_p{p}", mean_row)
        report.check(f"clt_ks_p{p}", bool(ks_p >= KS_LEVEL), f"KS p-value {ks_p:.4f} vs level {KS_LEVEL}")
    _falls(report, "correlation_diagnostic_decreases", "correlation_sum_diagnostic", ".5f")
    return report


def _variance_with_se(x: np.ndarray) -> tuple[float, float]:
    """Sample variance s^2 of x and its standard error from the fourth central moment m4.

    se^2 = (m4 - (n - 3) / (n - 1) s^4) / n, the variance of s^2 with the
    moments put in; by Cauchy-Schwarz it is never negative for n >= 2.
    """
    n = x.size
    var = float(np.var(x, ddof=1))
    m4 = float(np.mean((x - np.mean(x)) ** 4))
    return var, math.sqrt((m4 - (n - 3) / (n - 1) * var * var) / n)


def variance_experiment(
    p: Sequence[int],
    testfunction: TestFunction,
    samples: int,
    seed: int,
    threads: int = 1,
) -> StatsReport:
    """Number variance: Monte Carlo vs bipotential (within 3 SE) vs the zeta(3) leading term."""
    report = StatsReport("variance", seed)
    for p, space, ys, notes in _monte_carlo(
        report, list(p), testfunction.b, samples, threads, _linear_statistics(testfunction), ROOT_CHUNK
    ):
        report.diagnostics[p].update(zip(_ROOT_NOTES, notes.sum(axis=0).tolist()))
        var_mc, se = _variance_with_se(ys)
        bip = variance_bipotential(space, testfunction, report.diagnostics[p])
        mc_row = report.row(p, "linstat_variance_mc", var_mc, stderr=se, prediction=bip, n_samples=samples)
        report.row(p, "scaled_variance_vs_leading_term", p * bip, prediction=p * variance_leading_term(testfunction, p))
        report.check_within_se(f"variance_mc_matches_bipotential_p{p}", mc_row)
    _falls(report, "variance_leading_term_gap_shrinks", "scaled_variance_vs_leading_term", ".3e", value="deviation")
    return report


def hole_probability_experiment(
    p: Sequence[int],
    annulus: Annulus,
    samples: int,
    seed: int,
    threads: int = 1,
) -> StatsReport:
    """Hole probabilities P(no zero in the annulus), falling in p, and the p^2 trend of -log P.

    Each row is a frequency with its binomial stderr (`_frequency_row`), so
    a p with no hole reads 0 with stderr 1 / samples.  The probability must
    fall from each p to the next by more than 3 standard errors of the
    difference (`_falls`); a tie, or a fall within the noise, fails.  The
    least-squares slope of -log P against p^2 over the nonzero rows is
    reported, not checked: when every fall passes, -log P rises in p and
    the slope is positive.
    """
    report = StatsReport("holes", seed)
    for p, _, counts in _monte_carlo(report, list(p), annulus.b, samples, threads, _zero_counts(annulus), COUNT_CHUNK):
        _frequency_row(report, p, "hole_probability", counts == 0)
    positive = [row for row in report.rows if row.estimate > 0.0]
    if len(positive) >= 2:
        xs = np.array([row.p * row.p for row in positive], dtype=np.float64)
        ys = np.array([-math.log(row.estimate) for row in positive])
        report.row(None, "neg_log_hole_slope_vs_p2", float(np.polyfit(xs, ys, 1)[0]))
    _falls(report, "hole_probability_decreases", "hole_probability")
    return report


def deviation_experiment(
    p: Sequence[int],
    annulus: Annulus,
    delta: float,
    samples: int,
    seed: int,
    threads: int = 1,
) -> StatsReport:
    """Tail frequency of the zero count, P(|N / p - c1 area| > delta), falling in p.

    Each row is a frequency with its binomial stderr (`_frequency_row`).
    The frequency must fall from each p to the next by more than 3 standard
    errors of the difference (`_falls`): a tie, or a fall within the noise,
    fails.
    """
    report = StatsReport("deviation", seed)
    area = disc.c1_area(annulus)
    for p, _, counts in _monte_carlo(report, list(p), annulus.b, samples, threads, _zero_counts(annulus), COUNT_CHUNK):
        _frequency_row(report, p, "count_deviation_frequency", np.abs(counts / p - area) > delta)
    _falls(report, "count_deviation_decreases", "count_deviation_frequency")
    return report
