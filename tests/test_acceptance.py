"""Acceptance gate: every headline law at its stated tolerance and budget.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -v -s`).  The frozen master seed makes
every Monte Carlo criterion reproducible bit for bit.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import yaml

from bergman_zeros import disc, experiments, model, sections
from bergman_zeros.cli import main as cli_main
from bergman_zeros.disc import Annulus, make_disc_space
from bergman_zeros.statistics import TestFunction
from oracles import kernel_membership_residual

SEED = 20260811


class Criterion:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def finish(self, passed: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if passed and elapsed < self.budget else "FAIL"
        print(f"[criterion {self.number:02d}] {status} {self.label}: {detail} ({elapsed:.2f}s / budget {self.budget:g}s)")
        assert passed, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget, f"criterion {self.number} exceeded budget: {elapsed:.1f}s"


def test_criterion_01_plateau():
    crit = Criterion(1, "kernel plateau on [0.3, 0.9]", budget_s=4.5)
    errs = [abs(2 * math.pi * disc.kernel_function(60, r) / 59 - 1) for r in np.linspace(0.3, 0.9, 121)]
    sup60 = max(errs)
    # float64 sits at its rounding floor beyond p ~ 40, so the strict
    # decrease is certified on the exact values (closed polylog form)
    def true_sup(p):
        with mp.workdps(60):
            return max(
                float(abs(2 * mp.pi * (-mp.log(r * r)) ** p * mp.polylog(1 - p, r * r)
                          / (2 * mp.pi * mp.factorial(p - 2)) / (p - 1) - 1))
                for rr in np.linspace(0.3, 0.9, 41)
                for r in [mp.mpf(str(rr))]
            )

    sups = [true_sup(p) for p in (20, 40, 60)]
    ok = sup60 <= 1e-3 and sups[0] > sups[1] > sups[2]
    crit.finish(ok, f"sup error {sup60:.2e} at p=60; exact sups {sups[0]:.1e} > {sups[1]:.1e} > {sups[2]:.1e}")


def test_criterion_02_sup_law():
    crit = Criterion(2, "sup B_p ~ (p/2pi)^(3/2)", budget_s=0.5)
    ratios = {}
    for p in (100, 200):
        _, value = disc.sup_kernel(p)
        ratios[p] = value * (2 * math.pi / p) ** 1.5
    ok = abs(ratios[100] - 1) <= 0.25 and abs(ratios[200] - 1) < abs(ratios[100] - 1)
    crit.finish(ok, f"ratios {ratios[100]:.4f} (p=100), {ratios[200]:.4f} (p=200)")


def test_criterion_03_constant_curvature_model():
    crit = Criterion(3, "constant-curvature model kernel c/2pi", budget_s=10.0)
    rels = []
    for c in (0.5, 1.0, 2.0):
        pp = model.solve_potential(model.HomogeneousCurvature.from_monomials(2, [(0, 0, c)]))
        val = model.model_bergman_at_zero(model.gram_matrix(pp, max_deg=8))
        rels.append(abs(2 * math.pi * val / c - 1))
    crit.finish(max(rels) <= 1e-6, f"max relative error {max(rels):.2e} over c in {{0.5, 1, 2}}")


def test_criterion_04_quartic_example():
    crit = Criterion(4, "quartic curvature example", budget_s=60.0)

    def quartic(z):
        zb = np.conj(z)
        return (z * zb) ** 2 - z**3 * zb - (1 / 3) * z * zb**3 + 0.5 * z**4

    f = lambda z: np.exp(-quartic(z) / 16.0)
    f_dbar = lambda z: -(2 * z**2 * np.conj(z) - z**3 - z * np.conj(z) ** 2) / 16.0 * f(z)
    curv = model.HomogeneousCurvature.from_monomials(4, [(0, 2, 2.0)])  # form coefficient y^2, doubled
    pp = model.solve_potential(curv)
    xs = np.linspace(-3, 3, 50)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel()
    residual = kernel_membership_residual(pp, f, grid, f_dbar=f_dbar)

    rng = np.random.default_rng(SEED)
    pts = rng.uniform(-5, 5, size=20_000).view(np.complex128)
    lower = np.real(quartic(pts)) - (pts.real**4 / 24.0 + pts.imag**4 / 6.0)
    inequality_ok = bool(np.min(lower) >= -1e-12)

    value = model.model_bergman_at_zero(model.gram_matrix(pp, max_deg=12))
    from scipy.integrate import dblquad

    norm2, _ = dblquad(lambda y, x: abs(f(x + 1j * y)) ** 2, -12, 12, -12, 12, epsabs=1e-9, epsrel=1e-9)
    ok = residual <= 1e-10 and inequality_ok and value > 0.0 and value >= 1.0 / norm2
    crit.finish(ok, f"residual {residual:.1e}; quartic bound min slack {np.min(lower):.1e}; "
                    f"B(0,0) = {value:.5f} >= 1/||f||^2 = {1.0 / norm2:.5f}")


def test_criterion_05_zero_finder_cross_oracle():
    crit = Criterion(5, "Aberth oracle vs argument-principle counts", budget_s=20.0)
    p, region, n = 80, Annulus(0.2, 0.7), 200
    space = make_disc_space(p, sections.truncation_length(p, region.b))
    etas = np.array([sections.sample_etas(space, SEED, (p, i), 1)[0] for i in range(n)])
    # the argument principle alone: count_zeros_batch would count a failed row by find_zeros itself
    counts, unresolved = sections._counts(space, etas, region)
    disagreements = [i for i in range(n) if sections.find_zeros(space, etas[i], region).mult.sum() != counts[i]]
    shifted = Annulus(region.a + 1e-6, region.b - 1e-6)
    recounts, unresolved_shifted = sections._counts(space, etas[disagreements], shifted)
    resolved = sum(c == sections.find_zeros(space, etas[i], shifted).mult.sum() for i, c in zip(disagreements, recounts))
    failed = int(unresolved.sum() + unresolved_shifted.sum())
    ok = failed == 0 and len(disagreements) <= 2 and resolved == len(disagreements)
    crit.finish(ok, f"{n - len(disagreements)}/{n} agree; {resolved}/{len(disagreements)} resolved on radii moved by 1e-6; "
                    f"{failed} failed windings")


def test_criterion_06_expected_measure():
    crit = Criterion(6, "expected zero measure vs Monte Carlo", budget_s=120.0)
    report = experiments.equidistribution_experiment([100], Annulus(0.2, 0.7), 2000, seed=SEED, threads=2)
    row = next(r for r in report.rows if r.statistic == "mean_count")
    ok = next(c for c in report.checks if c.name == "expected_measure_p100").passed
    crit.finish(ok, f"mean {row.estimate:.3f} +- {row.stderr:.3f} vs expected {row.prediction:.3f}")


def test_criterion_07_equidistribution():
    crit = Criterion(7, "equidistribution of counts / p", budget_s=180.0)
    report = experiments.equidistribution_experiment(
        [50, 100, 200], Annulus(0.2, 0.7), 500, seed=SEED, paired_seeds=True, threads=2
    )
    detail = "; ".join(f"{c.name}: {c.detail}" for c in report.checks if c.name.startswith("expected_measure_"))
    crit.finish(report.all_passed, detail)


def _root_counters(report) -> str:
    """The zero finder's fallback rows and unconverged roots per p, from the run's diagnostics."""
    return ", ".join(
        f"p={p}: {d['fallback_rows']} fallback rows, {d['newton_nonconvergence']} unconverged"
        for p, d in report.diagnostics.items()
    )


def test_criterion_08_number_variance():
    crit = Criterion(8, "number variance: MC vs bipotential vs zeta(3) term", budget_s=40.0)
    phi = TestFunction(0.35, 0.65)
    report = experiments.variance_experiment([40, 80], phi, 2000, seed=SEED, threads=2)
    mc_rows = {r.p: r for r in report.rows if r.statistic == "linstat_variance_mc"}
    detail = (
        f"p=80: MC {mc_rows[80].estimate:.4f} vs bipotential {mc_rows[80].prediction:.4f}; "
        + "; ".join(c.detail for c in report.checks if "shrinks" in c.name)
        + f"; {_root_counters(report)}"
    )
    crit.finish(report.all_passed, detail)


def test_criterion_09_clt():
    crit = Criterion(9, "central limit theorem for linear statistics", budget_s=15.0)
    phi = TestFunction(0.35, 0.65)
    report = experiments.clt_experiment([100], phi, 1000, seed=SEED, threads=2)
    pval = [r for r in report.rows if r.statistic == "ks_pvalue"][0].estimate
    crit.finish(report.all_passed, f"KS p-value {pval:.4f} at level 0.01; {_root_counters(report)}")


def test_criterion_10_normalized_kernel_decay():
    crit = Criterion(10, "normalized-kernel Gaussian decay and far bound", budget_s=0.15)
    report = experiments.kernel_decay_experiment(200, Annulus(0.3, 0.7), n_pairs=400, seed=SEED)
    slope = [r for r in report.rows if r.statistic == "near_regime_slope"][0].estimate
    far = [r for r in report.rows if r.statistic == "far_regime_max_normalized_kernel"][0].estimate
    crit.finish(report.all_passed, f"slope {slope:.4f} in [0.9, 1.1]; far max {far:.2e} <= 1e-3")


def test_criterion_11_hole_probabilities():
    crit = Criterion(11, "hole probabilities decreasing with disjoint intervals", budget_s=14.0)
    report = experiments.hole_probability_experiment([4, 6, 8], Annulus(0.25, 0.45), 100_000, seed=SEED, threads=2)
    probs = [r for r in report.rows if r.statistic == "hole_probability"]
    detail = ", ".join(f"p={r.p}: {r.estimate:.4f}" for r in probs)
    crit.finish(report.all_passed, detail)


def test_criterion_12_parity():
    crit = Criterion(12, "odd jets of the model kernel vanish", budget_s=30.0)
    worst = 0.0
    for triples, rho in ([((0, 0, 1.0),), 2], [((0, 2, 2.0),), 4], [((2, 0, 1.0), (0, 2, 1.0)), 4]):
        curv = model.HomogeneousCurvature.from_monomials(rho, list(triples))
        basis = model.gram_matrix(model.solve_potential(curv), max_deg=10)
        jets = model.kernel_parity_and_jets(basis)
        odd = max(abs(v) for (i, j), v in jets.items() if (i + j) % 2 == 1)
        worst = max(worst, odd)
    crit.finish(worst <= 1e-5, f"max |odd jet| {worst:.2e} with step 1e-3")


def test_criterion_13_determinism(tmp_path):
    crit = Criterion(13, "byte-identical reruns and thread independence", budget_s=60.0)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "experiment": "equidistribution",
        "seed": SEED,
        "params": {"p": [30], "annulus": {"a": 0.25, "b": 0.6}, "samples": 300},
    }))
    outs = []
    for name, threads in [("a", 1), ("b", 1), ("c", 8)]:
        out = tmp_path / name
        assert cli_main(["run", str(cfg), "--out", str(out), "--threads", str(threads)]) == 0
        outs.append((out / "results.csv").read_bytes())
    digests = {json.loads((tmp_path / n / "summary.json").read_text())["config_digest"] for n in ("a", "b", "c")}
    ok = outs[0] == outs[1] == outs[2] and len(digests) == 1
    crit.finish(ok, f"3 runs, {len(set(outs))} distinct outputs, digest stable")
