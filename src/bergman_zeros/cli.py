"""Command-line runner: `bergman-zeros run <config>` and `bergman-zeros list`.

Exit codes: 0 success, 1 configuration or numerical error, 2 a check
threshold was violated under --check.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from . import __version__, experiments
from .config import EXPERIMENTS, REQUIRED, ConfigError, load_config
from .report import config_digest


def _versions() -> dict[str, str]:
    import numpy
    import scipy

    return {"bergman-zeros": __version__, "numpy": numpy.__version__, "scipy": scipy.__version__}


def _run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.threads is not None:
            cfg = dataclasses.replace(cfg, threads=args.threads)
        out_dir = Path(args.out if args.out is not None else cfg.out)
        # made before the experiment, so that an unusable --out costs no run; a failed run removes it again
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # looked up on the module at call time, so that a wrapper put there is what runs
    driver = getattr(experiments, EXPERIMENTS[cfg.kind].driver)
    threads = {"threads": cfg.threads} if "threads" in inspect.signature(driver).parameters else {}
    try:
        report = driver(**cfg.params, seed=cfg.seed, **threads)
    except Exception as exc:  # numerical failures surface as exit 1 with context
        print(f"error: {cfg.kind}: {exc}", file=sys.stderr)
        for d in made:  # innermost first; one that is no longer empty stays
            with contextlib.suppress(OSError):
                d.rmdir()
        return 1
    try:
        report.to_csv(out_dir / "results.csv")
        report.to_summary_json(out_dir / "summary.json", config_digest(cfg.digest_payload()), _versions())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for row in report.rows:
        print(row.to_csv_line())
    if args.check:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"[{status}] {c.name}: {c.detail}")
        if not report.all_passed:
            return 2
    return 0


def _list(args: argparse.Namespace) -> int:
    if args.json:
        payload = {
            kind: {
                "parameters": {
                    name: {
                        "type": entry.params[name],
                        "required": default is REQUIRED,
                        "default": None if default is REQUIRED else default,
                    }
                    for name, default in entry.defaults().items()
                },
                "anchor": entry.anchor,
            }
            for kind, entry in EXPERIMENTS.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    width = max(len(k) for k in EXPERIMENTS)
    for kind, entry in EXPERIMENTS.items():
        params = ", ".join(
            f"{name}{'' if default is REQUIRED else '?'}" for name, default in entry.defaults().items()
        )
        print(f"{kind.ljust(width)}  params: {params}")
        print(f"{''.ljust(width)}  checks: {entry.anchor}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bergman-zeros",
        description="Punctured-disc Bergman kernels and zero point-process experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a YAML config")
    run_p.add_argument("config", help="path to the YAML configuration")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--threads", type=int, default=None, help="worker threads (outputs are unaffected)")
    run_p.add_argument("--out", default=None, help="output directory (default from config)")
    run_p.add_argument("--check", action="store_true", help="exit 2 if any threshold check fails")
    run_p.set_defaults(func=_run)
    list_p = sub.add_parser("list", help="list experiment kinds and their parameters")
    list_p.add_argument("--json", action="store_true", help="machine-readable listing")
    list_p.set_defaults(func=_list)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
