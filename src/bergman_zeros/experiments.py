"""Experiment drivers verifying the asymptotic laws at desk scale.

Each driver is a pure function of its parameters and a seed: rows come
out in a fixed order, the coefficient rows of a Monte Carlo run at p are
drawn in sample order from the one stream (seed, p), or from (seed,) for
all p at once when paired, and thread count never changes any output
byte (the draw comes before the work is cut into fixed-size chunks;
threads only decide who runs a chunk).  Every Monte Carlo driver records
the truncation length of each p in `diagnostics`.

The driver signatures are the experiment table: every parameter but
`seed` and `threads` is a config key of the same name, its annotation
gives the key's type and its default the key's default
(`config.EXPERIMENTS` reads them from here).  The threshold each law is
checked at is a module constant beside its driver, not a config key.  In
the multi-p drivers `p` is the ascending list of tensor powers; the loop
over it rebinds `p` to one power.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import stats as sps

from . import disc, sections
from .disc import Annulus, DiscSpace
from .report import CheckResult, ReportRow, StatsReport
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
# engine, the log sup and the zero finder regardless of the thread count.
COUNT_CHUNK = 4096
ROOT_CHUNK = 64


def _map_chunks(
    worker: Callable[[int, int], object], total: int, chunk: int, threads: int
) -> list[object]:
    bounds = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    if threads <= 1 or len(bounds) <= 1:
        return [worker(lo, hi) for lo, hi in bounds]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, lo, hi) for lo, hi in bounds]
        return [f.result() for f in futures]


def _space_for(p: int, r_max: float, eps: float = sections.ZERO_TAIL_EPS) -> DiscSpace:
    return disc.make_disc_space(p, sections.truncation_length(p, r_max, eps))


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


def _chunked(space: DiscSpace, region: Annulus, etas: np.ndarray, threads: int, *batch_fns) -> list[np.ndarray]:
    """fn(space, rows, region) for each batch function, over COUNT_CHUNK chunks of rows in one pass, in row order."""

    def worker(lo: int, hi: int):
        return [fn(space, etas[lo:hi], region) for fn in batch_fns]

    return [np.concatenate(parts) for parts in zip(*_map_chunks(worker, etas.shape[0], COUNT_CHUNK, threads))]


def _falls(
    report: StatsReport, name: str, values: dict[int, float], fmt: str, label: str = "", strict: bool = True
) -> None:
    """One check {name}_p{p_lo}_to_p{p_hi} per neighbouring pair of p (the keys of values, in order).

    It passes when values[p_hi] < values[p_lo], or <= when not strict.
    """
    ps = list(values)
    for p_lo, p_hi in zip(ps, ps[1:]):
        lo, hi = values[p_lo], values[p_hi]
        passed = hi < lo if strict else hi <= lo
        report.checks.append(CheckResult(f"{name}_p{p_lo}_to_p{p_hi}", passed, f"{label}{lo:{fmt}} -> {hi:{fmt}}"))


# ---------------------------------------------------------------------------
# deterministic kernel experiments


# plateau: PLATEAU_N_GRID radii of [PLATEAU_R_MIN, PLATEAU_R_MAX], even in log(-log r)
PLATEAU_R_MIN = 0.3
PLATEAU_R_MAX = 0.9
PLATEAU_N_GRID = 512
PLATEAU_TOLERANCE = 1e-3


def plateau_experiment(p: Sequence[int], seed: int = 0) -> StatsReport:
    """Sup over [PLATEAU_R_MIN, PLATEAU_R_MAX] of |2 pi B_p / (p-1) - 1| for each p."""
    report = StatsReport()
    t = np.linspace(math.log(-math.log(PLATEAU_R_MAX)), math.log(-math.log(PLATEAU_R_MIN)), PLATEAU_N_GRID)
    radii = np.exp(-np.exp(t))
    for p in list(p):
        space = _space_for(p, PLATEAU_R_MAX, eps=1e-7)
        plateau = (p - 1) / (2.0 * math.pi)
        sup_err = float(np.max(np.abs(disc.kernel_function(space, radii) / plateau - 1.0)))
        report.add(
            ReportRow(
                "plateau", p, "plateau_sup_relative_error",
                estimate=sup_err, prediction=0.0, deviation=sup_err, seed=seed,
            )
        )
        report.checks.append(
            CheckResult(
                f"plateau_error_p{p}",
                sup_err <= PLATEAU_TOLERANCE,
                f"sup error {sup_err:.3e} vs tolerance {PLATEAU_TOLERANCE:.0e}",
            )
        )
    return report


SUP_TOLERANCE = 0.25  # largest |ratio - 1| of sup B_p to (p / 2 pi)^(3/2)


def sup_experiment(p: Sequence[int], seed: int = 0) -> StatsReport:
    """Global sup of B_p against the (p / 2 pi)^(3/2) law."""
    report = StatsReport()
    errors: dict[int, float] = {}
    for p in list(p):
        space = _space_for(p, 0.95, eps=1e-7)
        r_star, value = disc.sup_kernel(space)
        ratio = value * (2.0 * math.pi / p) ** 1.5
        errors[p] = abs(ratio - 1.0)
        report.add(
            ReportRow(
                "sup", p, "sup_ratio_to_power_law",
                estimate=ratio, prediction=1.0, deviation=abs(ratio - 1.0), seed=seed,
            )
        )
        report.add(
            ReportRow(
                "sup", p, "sup_maximizer_neg_log_radius",
                estimate=-math.log(r_star), seed=seed,
            )
        )
        report.checks.append(
            CheckResult(
                f"sup_ratio_p{p}",
                errors[p] <= SUP_TOLERANCE,
                f"|ratio - 1| = {errors[p]:.4f} vs {SUP_TOLERANCE}",
            )
        )
    _falls(report, "sup_ratio_improves", errors, ".4f", label="|ratio-1|: ")
    return report


PARITY_STEP = 1e-3  # of the central differences giving the jets of B at 0
PARITY_TOLERANCE = 1e-5  # largest odd jet


def model_kernel_experiment(
    rho_prime: int,
    curvature: Sequence[tuple[int, int, float]],
    max_deg: int = 12,
    seed: int = 0,
) -> StatsReport:
    """Model kernel at a curvature-vanishing point: B(0,0) and parity jets."""
    from . import model

    report = StatsReport()
    curv = model.HomogeneousCurvature.from_monomials(rho_prime, curvature)
    pp = model.solve_potential(curv)
    basis = model.gram_matrix(pp, max_deg=max_deg)
    value = model.model_bergman_at_zero(basis)
    prediction = None
    if rho_prime == 2:
        c = float(curv.psi_coeffs[0])
        prediction = c / (2.0 * math.pi)
    report.add(
        ReportRow(
            "model-kernel", None, "model_kernel_at_zero",
            estimate=value, prediction=prediction,
            deviation=None if prediction is None else abs(value - prediction), seed=seed,
        )
    )
    jets = model.kernel_parity_and_jets(basis, order=4, step=PARITY_STEP)
    odd = max(abs(v) for (i, j), v in jets.items() if (i + j) % 2 == 1)
    report.add(
        ReportRow(
            "model-kernel", None, "parity_max_odd_jet",
            estimate=odd, prediction=0.0, deviation=odd, seed=seed,
        )
    )
    report.checks.append(
        CheckResult("model_kernel_positive", value > 0.0, f"B(0,0) = {value:.6g}")
    )
    if prediction is not None:
        rel = abs(value / prediction - 1.0)
        report.checks.append(
            CheckResult("model_kernel_constant_curvature", rel <= 1e-6, f"relative error {rel:.2e}")
        )
    report.checks.append(
        CheckResult("model_kernel_parity", odd <= PARITY_TOLERANCE, f"max odd jet {odd:.2e}")
    )
    return report


def l1log_experiment(p: Sequence[int], annulus: Annulus, seed: int = 0) -> StatsReport:
    """L1 norm of log B_p over the annulus, against the plateau substitution."""
    report = StatsReport()
    values: dict[int, float] = {}
    area = disc.hyperbolic_area(annulus)
    ps = list(p)
    for p in ps:
        space = _space_for(p, annulus.b, eps=1e-7)
        val = disc.log_bergman_l1(space, annulus)
        values[p] = val
        pred = abs(math.log((p - 1) / (2.0 * math.pi))) * area
        report.add(
            ReportRow(
                "l1log", p, "log_kernel_l1",
                estimate=val, prediction=pred, deviation=abs(val - pred), seed=seed,
            )
        )
    # C log p bound with the natural constant: the plateau value is
    # |log((p-1)/2pi)| * area, so area * (1 + slack) dominates value/log p
    for p in ps:
        if p <= 2:
            continue
        bound = 1.05 * area * math.log(p)
        report.checks.append(
            CheckResult(
                f"l1_log_bound_p{p}",
                values[p] <= bound,
                f"value {values[p]:.4f} vs C log p = {bound:.4f}",
            )
        )
    for p_lo, p_hi in zip(ps, ps[1:]):
        if p_hi == 2 * p_lo and p_lo > 8:
            # doubling p grows the plateau value by the predicted log ratio
            ratio = values[p_hi] / values[p_lo]
            bound = 1.05 * abs(math.log((2 * p_lo - 1) / (2 * math.pi))) / abs(
                math.log((p_lo - 1) / (2 * math.pi))
            )
            report.checks.append(
                CheckResult(
                    f"l1_log_growth_p{p_lo}_to_p{p_hi}",
                    ratio <= bound,
                    f"growth ratio {ratio:.4f} vs plateau-predicted bound {bound:.4f}",
                )
            )
    return report


FAR_TOLERANCE = 1e-3  # largest N_p of a far pair


def kernel_decay_experiment(
    p: int,
    annulus: Annulus,
    n_pairs: int = 400,
    k: int = 2,
    seed: int = 0,
) -> StatsReport:
    """Normalized-kernel decay: Gaussian near-regime slope and far-regime bound.

    Near pairs have hyperbolic distance below sqrt(12 log p / p); the
    regression of -log N_p on p d^2/4 over them should have slope near 1.
    Far pairs sit beyond sqrt(12 k log p / p), where N_p must be tiny.
    """
    report = StatsReport()
    space = _space_for(p, annulus.b * 1.05, eps=1e-7)
    rng = sections.section_stream(seed, (p, 7001))
    d_near = math.sqrt(12.0) * math.sqrt(math.log(p) / p)
    d_far = math.sqrt(12.0 * k) * math.sqrt(math.log(p) / p)

    def displaced(r0: float, theta0: float, d: float, mode: int, sign: float) -> complex:
        s = -math.log(r0)
        if mode == 0:  # angular move
            dtheta = 2.0 * s * math.sinh(d / math.sqrt(2.0))
            return r0 * complex(math.cos(theta0 + sign * dtheta), math.sin(theta0 + sign * dtheta))
        # radial move, always inward so the truncation stays adequate
        s2 = s * math.exp(math.sqrt(2.0) * d)
        return math.exp(-s2) * complex(math.cos(theta0), math.sin(theta0))

    if n_pairs < 2:
        raise ValueError(f"far regime empty: n_pairs = {n_pairs} draws no far pair; need n_pairs >= 2")
    # pair i is near for even i, far for odd i
    z0s, z1s = np.empty(n_pairs, dtype=np.complex128), np.empty(n_pairs, dtype=np.complex128)
    for i in range(n_pairs):
        r0 = rng.uniform(annulus.a, annulus.b)
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        mode = int(rng.integers(0, 2))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        d = rng.uniform(0.08, d_near) if i % 2 == 0 else rng.uniform(d_far, 1.5 * d_far)
        z0s[i] = r0 * complex(math.cos(theta0), math.sin(theta0))
        z1s[i] = displaced(r0, theta0, d, mode, sign)
    npv = disc.normalized_kernel(space, z0s, z1s)
    near = np.arange(0, n_pairs, 2)
    near = near[npv[near] > 0.0]
    dists = np.array([disc.poincare_distance(z0s[i], z1s[i]) for i in near])
    xs, ys = p * dists * dists / 4.0, -np.log(npv[near])
    far_vals = npv[1::2]
    if len(xs) < 2:
        raise ValueError(
            f"near regime empty: {len(xs)} near pairs with N_p > 0, the slope fit needs 2; raise n_pairs"
        )
    slope = float(np.polyfit(xs, ys, 1)[0])
    far_max = float(np.max(far_vals))
    report.add(
        ReportRow(
            "kernel-decay", p, "near_regime_slope",
            estimate=float(slope), prediction=1.0, deviation=abs(float(slope) - 1.0),
            n_samples=len(xs), seed=seed,
        )
    )
    report.add(
        ReportRow(
            "kernel-decay", p, "far_regime_max_normalized_kernel",
            estimate=far_max, prediction=0.0, deviation=far_max,
            n_samples=len(far_vals), seed=seed,
        )
    )
    report.checks.append(
        CheckResult("decay_slope_window", bool(0.9 <= slope <= 1.1), f"slope {slope:.4f}")
    )
    report.checks.append(
        CheckResult("decay_far_bound", far_max <= FAR_TOLERANCE, f"max far N_p {far_max:.3e}")
    )
    return report


# ---------------------------------------------------------------------------
# Monte Carlo experiments


EQUIDISTRIBUTION_SLACK = 0.05  # what |mean/p - area| may exceed 3 SE/p by


def equidistribution_experiment(
    p: Sequence[int],
    annulus: Annulus,
    samples: int,
    seed: int,
    paired_seeds: bool = False,
    threads: int = 1,
) -> StatsReport:
    """Zero-count equidistribution against the curvature measure of the annulus.

    Also checks the mean count against the exact expected zero measure of
    the truncated section, within 3 standard errors.
    """
    report = StatsReport()
    diagnostics = report.metadata["diagnostics"] = {}
    area = disc.c1_area(annulus)
    deviations: dict[int, float] = {}
    ps = list(p)
    for p, space, etas in _draw(ps, annulus.b, samples, seed, diagnostics, paired_seeds):
        (counts,) = _chunked(space, annulus, etas, threads, sections.count_zeros_batch)
        mean = float(np.mean(counts))
        se = float(np.std(counts, ddof=1) / math.sqrt(samples))
        exact = disc.expected_zero_measure(space, annulus)
        dev = abs(mean / p - area)
        deviations[p] = dev
        report.add(
            ReportRow(
                "equidistribution", p, "mean_count_over_p",
                estimate=mean / p, stderr=se / p, prediction=area, deviation=dev,
                n_samples=samples, seed=seed,
            )
        )
        report.add(
            ReportRow(
                "equidistribution", p, "mean_count",
                estimate=mean, stderr=se, prediction=exact, deviation=abs(mean - exact),
                n_samples=samples, seed=seed,
            )
        )
        bound = 3.0 * se / p + EQUIDISTRIBUTION_SLACK
        report.checks.append(
            CheckResult(
                f"equidistribution_p{p}",
                dev <= bound,
                f"|mean/p - area| = {dev:.4f} vs 3 SE/p + {EQUIDISTRIBUTION_SLACK} = {bound:.4f}",
            )
        )
        report.checks.append(
            CheckResult(
                f"expected_measure_p{p}",
                abs(mean - exact) <= 3.0 * se,
                f"|mean - expected| = {abs(mean - exact):.4f} vs 3 SE = {3.0 * se:.4f}",
            )
        )
    if len(ps) >= 2:
        ok = deviations[ps[-1]] < deviations[ps[0]]
        report.checks.append(
            CheckResult(
                f"equidistribution_speed_p{ps[0]}_to_p{ps[-1]}",
                ok,
                f"deviation {deviations[ps[0]]:.4f} -> {deviations[ps[-1]]:.4f}",
            )
        )
    return report


def _linear_statistics(
    space: DiscSpace, phi: TestFunction, etas: np.ndarray, threads: int
) -> tuple[np.ndarray, dict[str, int]]:
    """Y(phi) of every row, and the counts of what the zero finder had to do.

    The counts are rows solved by the oracle fallback, unconverged-root
    notes, and merged roots, summed over the ZeroSet diagnostics of all rows.
    """
    m = etas.shape[0]
    ys = np.empty(m)

    def worker(lo: int, hi: int):
        zsets = sections.find_zeros_batch(space, etas[lo:hi], phi.support)
        for i, zset in enumerate(zsets, start=lo):
            zeros = np.array([z for z, _ in zset.zeros], dtype=np.complex128)
            mult = np.array([k for _, k in zset.zeros], dtype=np.float64)
            ys[i] = float(np.dot(mult, phi.value(np.abs(zeros))))
        return [note for zset in zsets for note in zset.diagnostics]

    notes = [note for chunk in _map_chunks(worker, m, ROOT_CHUNK, threads) for note in chunk]
    counts = {
        key: sum(note.startswith(prefix) for note in notes)
        for key, prefix in (
            ("fallback_rows", sections.FALLBACK),
            ("newton_nonconvergence", sections.NEWTON_NOTE),
            ("merges", sections.MERGE_NOTE),
        )
    }
    return ys, counts


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
    Also reports sup_z int N_p(z, w) c1(w), the correlation-summability
    diagnostic behind the theorem, which must decrease in p.
    """
    report = StatsReport()
    diagnostics = report.metadata["diagnostics"] = {}
    proxies: dict[int, float] = {}
    for p, space, etas in _draw(list(p), testfunction.b, samples, seed, diagnostics):
        ys, counts = _linear_statistics(space, testfunction, etas, threads)
        diagnostics[p].update(counts)
        sd = float(np.std(ys, ddof=1))
        if sd == 0.0:
            raise RuntimeError(
                "degenerate linear statistic (all samples equal); enlarge the support or p"
            )
        standardized = (ys - float(np.mean(ys))) / sd
        ks_stat, ks_p = sps.kstest(standardized, "norm")
        proxy = sodin_tsirelson_proxy(space, testfunction.support)
        proxies[p] = proxy
        mean_pred = expected_linear_statistic(space, testfunction)
        report.add(
            ReportRow(
                "clt", p, "linstat_mean",
                estimate=float(np.mean(ys)), stderr=sd / math.sqrt(samples),
                prediction=mean_pred, deviation=abs(float(np.mean(ys)) - mean_pred),
                n_samples=samples, seed=seed,
            )
        )
        report.add(ReportRow("clt", p, "ks_statistic", estimate=float(ks_stat), n_samples=samples, seed=seed))
        report.add(
            ReportRow(
                "clt", p, "ks_pvalue",
                estimate=float(ks_p), prediction=KS_LEVEL, n_samples=samples, seed=seed,
            )
        )
        report.add(ReportRow("clt", p, "correlation_sum_diagnostic", estimate=proxy, seed=seed))
        report.checks.append(
            CheckResult(f"clt_ks_p{p}", bool(ks_p >= KS_LEVEL), f"KS p-value {ks_p:.4f} vs level {KS_LEVEL}")
        )
    _falls(report, "correlation_diagnostic_decreases", proxies, ".5f")
    return report


VARIANCE_REL_TOLERANCE = 0.15  # share of the bipotential |MC - bipotential| may reach (or 3 bootstrap SE)
BOOTSTRAP_RESAMPLES = 500


def variance_experiment(
    p: Sequence[int],
    testfunction: TestFunction,
    samples: int,
    seed: int,
    threads: int = 1,
) -> StatsReport:
    """Number variance: Monte Carlo vs bipotential vs the zeta(3) leading term."""
    report = StatsReport()
    diagnostics = report.metadata["diagnostics"] = {}
    lead_gaps: dict[int, float] = {}
    for p, space, etas in _draw(list(p), testfunction.b, samples, seed, diagnostics):
        ys, counts = _linear_statistics(space, testfunction, etas, threads)
        diagnostics[p].update(counts)
        var_mc = float(np.var(ys, ddof=1))
        boot_rng = sections.section_stream(seed, (p, 1_000_003))
        idx = boot_rng.integers(0, samples, size=(BOOTSTRAP_RESAMPLES, samples))
        boot_vars = np.var(ys[idx], axis=1, ddof=1)
        boot_se = float(np.std(boot_vars, ddof=1))
        bip = variance_bipotential(space, testfunction, diagnostics[p])
        lead = variance_leading_term(testfunction, p)
        lead_gaps[p] = abs(p * bip - p * lead)
        report.add(
            ReportRow(
                "variance", p, "linstat_variance_mc",
                estimate=var_mc, stderr=boot_se, prediction=bip, deviation=abs(var_mc - bip),
                n_samples=samples, seed=seed,
            )
        )
        report.add(
            ReportRow(
                "variance", p, "scaled_variance_vs_leading_term",
                estimate=p * bip, prediction=p * lead, deviation=lead_gaps[p], seed=seed,
            )
        )
        tol = max(VARIANCE_REL_TOLERANCE * bip, 3.0 * boot_se)
        report.checks.append(
            CheckResult(
                f"variance_mc_matches_bipotential_p{p}",
                abs(var_mc - bip) <= tol,
                f"|MC - bipotential| = {abs(var_mc - bip):.3e} vs {tol:.3e}",
            )
        )
    _falls(report, "variance_leading_term_gap_shrinks", lead_gaps, ".3e", label="|p Var - leading| ")
    return report


WILSON_Z = 1.959963984540054  # two-sided 95 % normal quantile


def _wilson_interval(k: int, n: int) -> tuple[float, float]:
    z = WILSON_Z
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def hole_probability_experiment(
    p: Sequence[int],
    annulus: Annulus,
    samples: int,
    seed: int,
    threads: int = 1,
) -> StatsReport:
    """Empirical hole probabilities with Wilson intervals and the p^2 trend."""
    report = StatsReport()
    diagnostics = report.metadata["diagnostics"] = {}
    estimates: dict[int, float] = {}
    intervals: dict[int, tuple[float, float]] = {}
    ps = list(p)
    for p, space, etas in _draw(ps, annulus.b, samples, seed, diagnostics):
        (counts,) = _chunked(space, annulus, etas, threads, sections.count_zeros_batch)
        k = int(np.sum(counts == 0))
        phat = k / samples
        lo, hi = _wilson_interval(k, samples)
        estimates[p] = phat
        intervals[p] = (lo, hi)
        if k == 0:
            # rule of three: one-sided 95% upper bound on an unobserved event
            report.add(
                ReportRow(
                    "holes", p, "hole_probability_upper_bound",
                    estimate=3.0 / samples, n_samples=samples, seed=seed,
                )
            )
        else:
            se = math.sqrt(phat * (1.0 - phat) / samples)
            report.add(
                ReportRow("holes", p, "hole_probability", estimate=phat, stderr=se, n_samples=samples, seed=seed)
            )
        report.add(ReportRow("holes", p, "hole_probability_wilson_low", estimate=lo, n_samples=samples, seed=seed))
        report.add(ReportRow("holes", p, "hole_probability_wilson_high", estimate=hi, n_samples=samples, seed=seed))
    positive = [(p, estimates[p]) for p in ps if estimates[p] > 0.0]
    if len(positive) >= 2:
        xs = np.array([p * p for p, _ in positive], dtype=np.float64)
        ys = np.array([-math.log(ph) for _, ph in positive])
        slope = float(np.polyfit(xs, ys, 1)[0])
        report.add(ReportRow("holes", None, "neg_log_hole_slope_vs_p2", estimate=slope, seed=seed))
        report.checks.append(
            CheckResult("hole_decay_slope_positive", slope > 0.0, f"slope {slope:.4e}")
        )
    _falls(report, "hole_probability_decreases", estimates, ".4f")
    if len(ps) >= 2:
        lo_first = intervals[ps[0]][0]
        hi_last = intervals[ps[-1]][1]
        report.checks.append(
            CheckResult(
                f"hole_wilson_disjoint_p{ps[0]}_p{ps[-1]}",
                hi_last < lo_first,
                f"[{intervals[ps[-1]][0]:.4f}, {hi_last:.4f}] below [{lo_first:.4f}, {intervals[ps[0]][1]:.4f}]",
            )
        )
    return report


def deviation_experiment(
    p: Sequence[int],
    annulus: Annulus,
    delta: float,
    samples: int,
    seed: int,
    threads: int = 1,
) -> StatsReport:
    """Tail frequencies for the count deviation and the log-sup statistic."""
    report = StatsReport()
    diagnostics = report.metadata["diagnostics"] = {}
    area = disc.c1_area(annulus)
    freqs: dict[int, float] = {}
    for p, space, etas in _draw(list(p), annulus.b, samples, seed, diagnostics):
        counts, log_sup = _chunked(space, annulus, etas, threads, sections.count_zeros_batch, sections.log_sup_batch)
        freq_count = float(np.mean(np.abs(counts / p - area) > delta))
        freq_sup = float(np.mean(np.abs(log_sup) / p >= delta))
        freqs[p] = freq_count
        for statistic, freq in (
            ("count_deviation_frequency", freq_count), ("log_sup_deviation_frequency", freq_sup)
        ):
            report.add(
                ReportRow(
                    "deviation", p, statistic,
                    estimate=freq, stderr=math.sqrt(max(freq * (1 - freq), 1.0 / samples) / samples),
                    n_samples=samples, seed=seed,
                )
            )
    _falls(report, "count_deviation_decreases", freqs, ".4f", strict=False)
    return report
