"""Benchmark of the bergman-zeros library: one command, three workloads.

    python3 benchmark/run.py --workload {mc-counts,mc-linstat,kernels} \
        --seed N --seconds S --trace {0,1} [--tiny]

Load model: a closed loop with one client.  One process runs one
experiment at a time with threads=2; BLAS threads stay at the library
default and are recorded in the machine block.

With --trace 0 the end-to-end metrics are measured: set-up is timed in
several fresh processes, then one workload process repeats the whole
workload until --seconds have passed.  A fixed calibration kernel that
calls no library code runs before each op, after a pass's last op and
right after each set-up.  Every gated time is the median, over passes
(over set-ups for setup_s), of the raw time multiplied by
REFERENCE_CALIBRATION_S / (the median calibration time of that pass or
set-up).  That is seconds at the reference machine's speed, so that the
host getting busier or calmer between runs does not read as a change in
the library.  The raw medians are printed beside them and kept in
result.json.  With --trace 1 one untraced pass is followed by traced
passes, and the per-layer metrics come from the spans.  Every op's
outputs are checked in both modes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it give the machine
block and every metric by name, with its unit.  Full results go to
.benchmark_out/<workload>/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mc-counts", "mc-linstat", "kernels")
SETUP_PROBES = 4  # fresh processes that only set up; the measuring process is one more
TIME_LIMIT_S = 170.0
# Median of worker.calibration_s() on the reference machine (2 vCPUs, see README.md).
REFERENCE_CALIBRATION_S = 0.070


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bergman-zeros benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "bergman_zeros" / "__init__.py").is_file():
        print(f"error: library source not found at {ROOT / 'src' / 'bergman_zeros'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    out = ROOT / ".benchmark_out" / args.workload / (
        f"seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    )
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]
    if args.tiny:
        common.append("--tiny")
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = _worker(common + ["--setup-only"], deadline)
                setups.append((probe["setup_s"], probe["calibration_s"]))
        res = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("machine " + json.dumps(res["machine"], sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: {res['attempted']} ops, {res['failed']} failed, "
          f"{len(res['passes']) + len(res.get('traced_passes', []))} passes")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    for info in res["info_checks_failed"]:
        print(f"  info (statistical check, not counted) {info}")

    if args.trace:
        metrics = res["per_layer"]
    else:
        passes = res["passes"]
        first, second = res["runs"]  # reported as run_s.first and run_s.second
        setups.append((res["setup_s"], res["setup_calibration_s"]))
        raw = {
            "wall_s": median(it["wall_s"] for it in passes),
            "run_s.first": median(it["runs"][first] for it in passes),
            "run_s.second": median(it["runs"][second] for it in passes),
            "setup_s": median(s for s, _ in setups),
        }
        speeds = [REFERENCE_CALIBRATION_S / median(it["calibration_s"]) for it in passes]
        gated = {
            "wall_s": median(it["wall_s"] * v for it, v in zip(passes, speeds)),
            "run_s.first": median(it["runs"][first] * v for it, v in zip(passes, speeds)),
            "run_s.second": median(it["runs"][second] * v for it, v in zip(passes, speeds)),
            "setup_s": median(s * REFERENCE_CALIBRATION_S / c for s, c in setups),
        }
        metrics = {name: {"value": value, "unit": "s"} for name, value in gated.items()}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
        res["raw_s"] = raw
        res["calibration_median_s"] = median(c for it in passes for c in it["calibration_s"])
        print(f"  run_s.{first} = run_s.first; run_s.{second} = run_s.second")
        print(f"  calibration {res['calibration_median_s']:.6g} s median, reference {REFERENCE_CALIBRATION_S} s")
        for name, value in raw.items():
            print(f"  raw {name} {value:.6g} s")
        if res["samples"]:
            print(f"  samples_per_s {res['samples'] / raw['wall_s']:.6g} 1/s"
                  f" ({res['samples']} sections per pass, raw wall time)")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    summary = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    (out / "result.json").write_text(
        json.dumps({**summary, "machine": res["machine"], "detail": res}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
