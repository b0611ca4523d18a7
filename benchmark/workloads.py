"""Workload definitions, input generation from the seed, and output checks.

Each workload is a list of named runs; a run is a list of ops.  An op is
one `bergman-zeros run <config> --check` invocation, or one direct call
of `statistics.variance_bipotential`.  The p values, truncation lengths
and regions are fixed; only sample counts are scaled to the run length
(and shrunk further by `tiny`, which the self-tests use).

Why these workloads:

- mc-counts: the argument-principle pipeline (coefficient draw + winding
  count) does all the work and companion roots do none.  Holes has small
  L (29-35), where the per-sample Python loop of the winding count
  dominates; equidistribution has large L (185-476), where the GEMM
  dominates.
- mc-linstat: companion roots plus Newton polishing do almost all the
  work and the winding count never runs; the bipotential runs at small p,
  where it does not refine.
- kernels: no random sections.  Point-by-point kernel evaluation, the
  repeated truncation search, the model-kernel Gram matrices, and the
  bipotential at p=200, which refines through three node doublings and
  holds the largest grid of the suite.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from scipy import stats as sps

THREADS = 2  # the load model: one client, one experiment at a time, threads = nproc

TEST_FUNCTION = {"a": 0.35, "b": 0.65}
HOLES_P = [4, 6, 8]
HOLES_ANNULUS = {"a": 0.25, "b": 0.45}


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # an experiment kind of `bergman-zeros run`, or "bipotential"
    params: dict
    monte_carlo: bool = False

    @property
    def samples(self) -> int:
        """Monte Carlo sections this op draws (0 for deterministic kinds)."""
        if not self.monte_carlo:
            return 0
        return self.params["samples"] * len(self.params["p"])


def workload_runs(workload: str, tiny: bool = False) -> list[tuple[str, list[Op]]]:
    if workload == "mc-counts":
        return [
            ("holes", [Op("holes", "holes", {
                "p": HOLES_P, "annulus": HOLES_ANNULUS,
                "samples": 300 if tiny else 4000,
            }, monte_carlo=True)]),
            ("equidistribution", [Op("equidistribution", "equidistribution", {
                "p": [50, 100, 200], "annulus": {"a": 0.2, "b": 0.7},
                "samples": 20 if tiny else 200, "paired_seeds": True,
            }, monte_carlo=True)]),
        ]
    if workload == "mc-linstat":
        return [
            ("clt", [Op("clt", "clt", {
                "p": [100], "testfunction": TEST_FUNCTION, "samples": 6 if tiny else 12,
            }, monte_carlo=True)]),
            ("variance", [Op("variance", "variance", {
                "p": [40, 80], "testfunction": TEST_FUNCTION, "samples": 6 if tiny else 16,
            }, monte_carlo=True)]),
        ]
    if workload == "kernels":
        curvatures = [
            ("constant", 2, [[0, 0, 1.0]]),
            ("quartic", 4, [[0, 2, 2.0]]),
            ("radial-quartic", 4, [[2, 0, 2.0], [0, 2, 2.0]]),
        ]
        laws = [
            Op("plateau", "plateau", {"p": [20, 40] if tiny else [20, 40, 60, 120, 240]}),
            Op("sup", "sup", {"p": [100] if tiny else [100, 200]}),
            Op("l1log", "l1log", {
                "p": [18, 36] if tiny else [18, 36, 72, 144], "annulus": {"a": 0.3, "b": 0.9},
            }),
            Op("kernel-decay", "kernel-decay", {
                "p": 200, "annulus": {"a": 0.3, "b": 0.7}, "n_pairs": 100 if tiny else 1000,
            }),
        ] + [
            Op(f"model-kernel-{label}", "model-kernel", {
                "rho_prime": rho_prime, "curvature": curvature, "max_deg": 8 if tiny else 16,
            })
            for label, rho_prime, curvature in curvatures
        ]
        bipotential = Op("bipotential", "bipotential", {
            "p": 40 if tiny else 200, "testfunction": TEST_FUNCTION,
        })
        return [("kernel-laws", laws), ("bipotential", [bipotential])]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("mc-counts", "mc-linstat", "kernels")


def write_inputs(ops: list[Op], seed: int, directory: Path) -> dict[str, Path]:
    """One input file per op; configs are JSON, which the YAML loader accepts."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        if op.kind == "bipotential":
            doc = {"seed": seed, "params": op.params}
        else:
            doc = {"experiment": op.kind, "seed": seed, "threads": THREADS, "params": op.params}
        path = directory / f"{op.name}.yaml"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths[op.name] = path
    return paths


# ---------------------------------------------------------------------------
# output checks
#
# Each bound holds for every seed unless the code is wrong: a correct
# library breaks it with probability below FALSE_ALARM per row.  Means are
# compared with the row's own prediction in units of its stderr, with the
# Student t quantile for the row's sample count.  A Monte Carlo variance is
# compared with its prediction through the chi-square quantiles.  Hole
# probabilities and bipotential values are compared with references.json,
# which was made from the library when this benchmark was defined.  The
# library's own statistical checks of the Monte Carlo kinds (KS level,
# monotonicity in p) fail by chance at their own level and are only
# recorded, never counted.

FALSE_ALARM = 1e-6
BIPOTENTIAL_RTOL = 2.5e-3  # five times the quadrature's relative tolerance of 5e-4
REFERENCES = json.loads((Path(__file__).resolve().parent / "references.json").read_text(encoding="utf-8"))


def read_rows(path: Path) -> list[dict]:
    def num(x: str):
        return None if x == "" else float(x)

    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            rows.append({
                "experiment": r["experiment"],
                "p": None if r["p"] == "" else int(r["p"]),
                "statistic": r["statistic"],
                "estimate": num(r["estimate"]),
                "stderr": num(r["stderr"]),
                "prediction": num(r["prediction"]),
                "deviation": num(r["deviation"]),
                "n_samples": None if r["n_samples"] == "" else int(r["n_samples"]),
                "seed": None if r["seed"] == "" else int(r["seed"]),
            })
    return rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300) + 1e-15


def _mean_within_t(row: dict | None) -> list[str]:
    """|estimate - prediction| <= t * stderr, t the two-sided FALSE_ALARM quantile with n - 1 dof."""
    if row is None:
        return []
    t = float(sps.t.isf(FALSE_ALARM / 2, row["n_samples"] - 1))
    gap = abs(row["estimate"] - row["prediction"])
    if gap <= t * row["stderr"]:
        return []
    return [
        f"{row['statistic']} p={row['p']}: |{row['estimate']:.6g} - {row['prediction']:.6g}|"
        f" = {gap:.3g} > {t:.3g} stderr = {t * row['stderr']:.3g}"
    ]


def _variance_within_chi2(row: dict | None) -> list[str]:
    """(n - 1) * estimate / prediction inside the two-sided FALSE_ALARM chi-square band."""
    if row is None:
        return []
    dof = row["n_samples"] - 1
    lo, hi = sps.chi2.isf(1 - FALSE_ALARM / 2, dof) / dof, sps.chi2.isf(FALSE_ALARM / 2, dof) / dof
    ratio = row["estimate"] / row["prediction"]
    if lo <= ratio <= hi:
        return []
    return [f"{row['statistic']} p={row['p']}: estimate / prediction = {ratio:.4g} outside [{lo:.3g}, {hi:.3g}]"]


def _bipotential_matches_reference(p: int, value: float) -> list[str]:
    ref = REFERENCES["bipotential"]["by_p"].get(str(p))
    if ref is None:
        return []
    if math.isfinite(value) and _close(value, ref["value"], BIPOTENTIAL_RTOL):
        return []
    return [f"bipotential p={p}: {value!r} vs reference {ref['value']!r} (rtol {BIPOTENTIAL_RTOL:g})"]


def _holes_match_reference(p: int, holes: int, m: int) -> list[str]:
    """The hole count is a plausible Binomial(m, q) draw, q within its reference's error."""
    ref = REFERENCES["holes"]["by_p"][str(p)]
    z = float(sps.norm.isf(FALSE_ALARM / 2))
    q_lo = max(ref["estimate"] - z * ref["stderr"], 0.0)
    q_hi = min(ref["estimate"] + z * ref["stderr"], 1.0)
    too_many = sps.binom.sf(holes - 1, m, q_hi) < FALSE_ALARM / 2
    too_few = sps.binom.cdf(holes, m, q_lo) < FALSE_ALARM / 2
    if not (too_many or too_few):
        return []
    return [f"holes p={p}: {holes} holes in {m} samples; reference probability {ref['estimate']:.4g}"]


def check_rows(op: Op, rows: list[dict], seed: int) -> list[str]:
    """Problems with an op's rows; an empty list means the outputs are valid."""
    problems: list[str] = []
    if not rows:
        return ["no result rows"]
    by_stat: dict[tuple[str, int | None], dict] = {}
    for row in rows:
        by_stat[(row["statistic"], row["p"])] = row
        if row["experiment"] != op.kind:
            problems.append(f"row of experiment {row['experiment']!r} in a {op.kind} run")
        if row["seed"] != seed:
            problems.append(f"{row['statistic']}: seed {row['seed']} != {seed}")
        if not math.isfinite(row["estimate"]):
            problems.append(f"{row['statistic']} p={row['p']}: estimate {row['estimate']}")
        if op.monte_carlo and row["n_samples"] not in (None, op.params["samples"]):
            problems.append(f"{row['statistic']}: n_samples {row['n_samples']}")
        if row["deviation"] is not None and row["prediction"] is not None:
            scale = max(abs(row["estimate"]), abs(row["prediction"]), abs(row["deviation"]))
            if abs(row["deviation"] - abs(row["estimate"] - row["prediction"])) > 1e-9 * scale:
                problems.append(f"{row['statistic']} p={row['p']}: deviation != |estimate - prediction|")

    def need(stat: str, p):
        row = by_stat.get((stat, p))
        if row is None:
            problems.append(f"missing row {stat} p={p}")
        return row

    m = op.params.get("samples")
    if op.kind == "holes":
        for p in op.params["p"]:
            est = by_stat.get(("hole_probability", p))
            if est is None and need("hole_probability_upper_bound", p) is None:
                continue
            holes = 0 if est is None else round(est["estimate"] * m)
            problems += _holes_match_reference(p, holes, m)
    elif op.kind == "equidistribution":
        for p in op.params["p"]:
            count, over_p = need("mean_count", p), need("mean_count_over_p", p)
            problems += _mean_within_t(count)
            if count is not None and over_p is not None and not _close(over_p["estimate"] * p, count["estimate"], 1e-6):
                problems.append(f"equidistribution p={p}: mean_count_over_p * p != mean_count")
    elif op.kind == "clt":
        for p in op.params["p"]:
            problems += _mean_within_t(need("linstat_mean", p))
            ks = need("ks_statistic", p)
            if ks is not None and not 0.0 < ks["estimate"] <= 1.0:
                problems.append(f"clt p={p}: KS statistic {ks['estimate']} outside (0, 1]")
            pv = need("ks_pvalue", p)
            if pv is not None and not 0.0 <= pv["estimate"] <= 1.0:
                problems.append(f"clt p={p}: KS p-value {pv['estimate']} outside [0, 1]")
            proxy = need("correlation_sum_diagnostic", p)
            if proxy is not None and not proxy["estimate"] > 0.0:
                problems.append(f"clt p={p}: correlation diagnostic {proxy['estimate']} not positive")
    elif op.kind == "variance":
        for p in op.params["p"]:
            row = need("linstat_variance_mc", p)
            problems += _variance_within_chi2(row)
            if row is not None:
                problems += _bipotential_matches_reference(p, row["prediction"])
            scaled = need("scaled_variance_vs_leading_term", p)
            if scaled is not None and not (scaled["estimate"] > 0.0 and scaled["prediction"] > 0.0):
                problems.append(f"variance p={p}: bipotential or leading term not positive")
    return problems


def check_bipotential(p: int, value: float) -> list[str]:
    """The bipotential variance agrees with the reference value at this p."""
    if str(p) not in REFERENCES["bipotential"]["by_p"]:
        return [f"bipotential p={p}: no reference value"]
    return _bipotential_matches_reference(p, value)
