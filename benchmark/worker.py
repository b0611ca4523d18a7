"""The workload process started by run.py.

It imports the library from `src/`, writes the workload's inputs for the
seed, then runs the whole workload again and again until `--seconds` have
passed, checking every op's outputs each time, and prints one JSON line.
Each op is timed on its own, right after one run of a fixed calibration
kernel (`calibration_s`) that run.py uses to take the host's speed out of
the gated times.
`--setup-only` stops after the inputs are written, so run.py can time
set-up in fresh processes.

Usage (normally through run.py):
    python3 benchmark/worker.py --workload W --seed N --out DIR --seconds S [--trace 0|1] [--tiny]
    python3 benchmark/worker.py --workload W --seed N --out DIR --setup-only [--tiny]
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here: imports plus input generation

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import bergman_zeros  # noqa: E402
from bergman_zeros import cli, disc, sections  # noqa: E402
from bergman_zeros import statistics as bz_statistics  # noqa: E402

from tracer import Tracer, self_times  # noqa: E402
from workloads import THREADS, Op, check_bipotential, check_rows, read_rows, workload_runs, write_inputs  # noqa: E402

SETUP_CALIBRATIONS = 3
DRIVERS = (
    "hole_probability_experiment",
    "equidistribution_experiment",
    "clt_experiment",
    "variance_experiment",
    "plateau_experiment",
    "sup_experiment",
    "l1log_experiment",
    "kernel_decay_experiment",
    "model_kernel_experiment",
)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


# ---------------------------------------------------------------------------
# machine block


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process, by library file."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(path).name] = int(fn())
                break
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree; git does not look above it."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bergman_zeros").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_block() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "memory_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 1),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "env": {k: os.environ.get(k) for k in BLAS_ENV},
        },
        "experiment_threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bergman_zeros": bergman_zeros.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# ops

# Library checks of the Monte Carlo kinds whose outcome does not depend on
# the random draws; every other check of those kinds is information only.
DETERMINISTIC_CHECKS = ("variance_leading_term_gap_shrinks_", "correlation_diagnostic_decreases_")


def run_op(op: Op, path: Path, out_dir: Path, seed: int) -> dict:
    """Run one op; `problems` lists why it failed: it raised, exited 1, or broke a bound."""
    record = {"op": op.name, "problems": [], "info": []}
    if op.kind == "bipotential":
        p = op.params["p"]
        try:
            phi = bz_statistics.TestFunction(**op.params["testfunction"])
            space = disc.make_disc_space(p, sections.truncation_length(p, phi.b))
            value = bz_statistics.variance_bipotential(space, phi)
        except Exception as exc:  # an op that raises is a failed op, not a crash of the run
            record["problems"].append(f"raised {type(exc).__name__}: {exc}")
        else:
            record["output"] = repr(value)
            record["problems"] += check_bipotential(p, value)
    else:
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(["run", str(path), "--out", str(out_dir), "--check"])
        except Exception as exc:  # as above
            rc = None
            record["problems"].append(f"raised {type(exc).__name__}: {exc}")
        failed_checks = [line for line in stdout.getvalue().splitlines() if line.startswith("[FAIL]")]
        if rc == 1:
            record["problems"].append(f"exit 1: {stderr.getvalue().strip()}")
        for line in failed_checks if rc == 2 else ():
            random_outcome = op.monte_carlo and not line[len("[FAIL] "):].startswith(DETERMINISTIC_CHECKS)
            record["info" if random_outcome else "problems"].append(line)
        if rc in (0, 2):
            csv_path = out_dir / "results.csv"
            record["output"] = csv_path.read_text(encoding="utf-8")
            record["problems"] += check_rows(op, read_rows(csv_path), seed)
    return record


_CAL_RNG = numpy.random.default_rng(0)
_CAL_GEMM = _CAL_RNG.standard_normal((256, 256))
_CAL_EIG = _CAL_RNG.standard_normal((96, 96))
_CAL_Z = _CAL_RNG.standard_normal(50_000) + 1j * _CAL_RNG.standard_normal(50_000)


def calibration_s() -> float:
    """Time of a fixed mix of interpreter, numpy, BLAS and LAPACK work that calls no library code.

    It runs around the ops of every pass and right after set-up, and run.py
    divides the gated times by its median there, so that a change in the
    host's speed between runs does not read as a change in the library.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    for _ in range(2):
        numpy.abs(numpy.exp(0.5 * numpy.log(_CAL_Z))).sum()
    for _ in range(24):
        _CAL_GEMM @ _CAL_GEMM
    numpy.linalg.eigvals(_CAL_EIG)
    return time.perf_counter() - t0


def run_pass(runs, inputs, out: Path, seed: int, index: int, tracer: Tracer | None) -> dict:
    """One pass over the workload; the calibration runs before each op and after the last."""
    record = {"runs": {}, "ops": [], "calibration_s": []}
    cpu_s = 0.0
    for run_name, ops in runs:
        if tracer is not None:
            tracer.run = f"{run_name}#{index}"
        run_s = 0.0
        for op in ops:
            record["calibration_s"].append(calibration_s())
            cpu0, t0 = time.process_time(), time.perf_counter()
            record["ops"].append(run_op(op, inputs[op.name], out / op.name, seed))
            run_s += time.perf_counter() - t0
            cpu_s += time.process_time() - cpu0
        record["runs"][run_name] = run_s
    record["calibration_s"].append(calibration_s())
    record["wall_s"] = sum(record["runs"].values())
    record["cpu_per_wall"] = cpu_s / record["wall_s"]
    return record


def _another_pass(passes: list[dict], start: float, seconds: float) -> bool:
    """At least one pass; then another while it would end less than half a pass late."""
    if not passes:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / len(passes) / 2 < seconds


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def layer_metrics(spans, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per workload pass; 0 where a layer did not run."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    truncation_keys = set()
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        if s.counts and "key" in s.counts:
            # distinct argument tuples within one pass: the run id ends in "#<pass>"
            truncation_keys.add((s.run.rsplit("#", 1)[-1], s.counts["key"]))
        elif s.counts:
            acc = counts.setdefault(s.name, {})
            for k, v in s.counts.items():
                acc[k] = acc.get(k, 0) + v
    selfs = self_times(spans)

    def n_calls(name: str) -> tuple[float, str]:
        return calls.get(name, 0) / passes, "count"

    def busy_s(name: str) -> tuple[float, str]:
        return busy.get(name, 0.0) / passes, "s"

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    sample, batch, fz = "sections.sample_section", "sections.count_zeros_batch", "sections.find_zeros"
    grid, trunc = "statistics.normalized_kernel_grid", "disc.adaptive_truncation"
    fz_counts = counts.get(fz, {})
    out = {
        f"{sample}.calls": n_calls(sample),
        f"{sample}.busy_s": busy_s(sample),
        f"{sample}.us_per_sample": (ratio(busy.get(sample, 0.0), calls.get(sample, 0), 1e6), "us"),
        f"{batch}.calls": n_calls(batch),
        f"{batch}.busy_s": busy_s(batch),
        f"{batch}.us_per_sample": (
            ratio(busy.get(batch, 0.0), counts.get(batch, {}).get("samples", 0), 1e6), "us"
        ),
        f"{fz}.calls": n_calls(fz),
        f"{fz}.busy_s": busy_s(fz),
        f"{fz}.ms_per_call": (ratio(busy.get(fz, 0.0), calls.get(fz, 0), 1e3), "ms"),
        f"{fz}.kept_ratio": (ratio(fz_counts.get("kept", 0), fz_counts.get("eigenvalues", 0)), "ratio"),
        f"{fz}.diagnostics": (fz_counts.get("diagnostics", 0) / passes, "count"),
        "sections.linear_statistic.busy_s": busy_s("sections.linear_statistic"),
        "statistics.variance_bipotential.busy_s": busy_s("statistics.variance_bipotential"),
        f"{grid}.calls": n_calls(grid),
        f"{grid}.busy_s": busy_s(grid),
        "statistics.sodin_tsirelson_proxy.busy_s": busy_s("statistics.sodin_tsirelson_proxy"),
    }
    for name in ("disc.log_kernel_function", "disc.normalized_kernel", "disc.zero_counting_function", trunc):
        out[f"{name}.calls"] = n_calls(name)
        out[f"{name}.busy_s"] = busy_s(name)
    out[f"{trunc}.distinct_ratio"] = (ratio(len(truncation_keys), calls.get(trunc, 0)), "ratio")
    out["model.solve_potential.busy_s"] = busy_s("model.solve_potential")
    out["model.gram_matrix.calls"] = n_calls("model.gram_matrix")
    out["model.gram_matrix.busy_s"] = busy_s("model.gram_matrix")
    for driver in DRIVERS:
        out[f"experiments.{driver}.self_s"] = (selfs.get(f"experiments.{driver}", 0.0) / passes, "s")
    out["cli.run.self_s"] = (selfs.get("cli.run", 0.0) / passes, "s")
    return out


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required unless --setup-only")

    loaded = Path(bergman_zeros.__file__).resolve().parent
    if loaded != SRC / "bergman_zeros":
        print(f"error: bergman_zeros imported from {loaded}, not from {SRC}", file=sys.stderr)
        return 2
    runs = workload_runs(args.workload, args.tiny)
    ops = [op for _, run_ops in runs for op in run_ops]
    out = Path(args.out)
    inputs = write_inputs(ops, args.seed, out / "inputs")
    setup_s = time.perf_counter() - _T0
    setup_calibration_s = median(calibration_s() for _ in range(SETUP_CALIBRATIONS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "calibration_s": setup_calibration_s}))
        return 0

    passes: list[dict] = []
    traced: list[dict] = []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    if tracer is not None:
        # one untraced pass: the base of the tracing overhead and of cpu_per_wall
        passes.append(run_pass(runs, inputs, out, args.seed, 0, None))
        with tracer:
            while _another_pass(traced, start, args.seconds):
                traced.append(run_pass(runs, inputs, out, args.seed, len(traced) + 1, tracer))
    else:
        while _another_pass(passes, start, args.seconds):
            passes.append(run_pass(runs, inputs, out, args.seed, len(passes), None))

    reference: dict[str, str] = {}
    for it in passes + traced:
        for rec in it["ops"]:
            if "output" in rec:
                first = reference.setdefault(rec["op"], rec["output"])
                if rec["output"] != first:
                    rec["problems"].append("output differs from the first pass with the same inputs")
    all_ops = [rec for it in passes + traced for rec in it["ops"]]
    kept = ("wall_s", "runs", "cpu_per_wall", "calibration_s")
    result = {
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(all_ops),
        "failed": sum(1 for rec in all_ops if rec["problems"]),
        "problems": sorted({f"{rec['op']}: {p}" for rec in all_ops for p in rec["problems"]}),
        "info_checks_failed": sorted({f"{rec['op']}: {p}" for rec in all_ops for p in rec["info"]}),
        "runs": [name for name, _ in runs],
        "samples": sum(op.samples for op in ops),
        "passes": [{k: it[k] for k in kept} for it in passes],
        "machine": machine_block(),
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans, len(traced))
        layers["experiments.cpu_per_wall"] = (passes[0]["cpu_per_wall"], "ratio")
        layers["tracing.overhead_s"] = (median(it["wall_s"] for it in traced) - passes[0]["wall_s"], "s")
        result["traced_passes"] = [{k: it[k] for k in kept} for it in traced]
        result["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        result["spans"] = len(tracer.spans)
        tracer.write(out / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
