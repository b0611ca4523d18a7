"""Tabular results: rows, reports, and the CSV/JSON artifact writers.

The CSV schema is a stable contract:

    experiment,p,statistic,estimate,stderr,prediction,deviation,n_samples,seed

Values are formatted with a fixed 12-significant-digit format so a rerun
with the same (config, seed) is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

CSV_HEADER = "experiment,p,statistic,estimate,stderr,prediction,deviation,n_samples,seed"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int,)):
        return str(x)
    return format(float(x), ".12g")


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    p: int | None
    statistic: str
    estimate: float
    stderr: float | None = None
    prediction: float | None = None
    deviation: float | None = None
    n_samples: int | None = None
    seed: int | None = None

    def to_csv_line(self) -> str:
        return ",".join(
            [
                self.experiment,
                _fmt(self.p),
                self.statistic,
                _fmt(self.estimate),
                _fmt(self.stderr),
                _fmt(self.prediction),
                _fmt(self.deviation),
                _fmt(self.n_samples),
                _fmt(self.seed),
            ]
        )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class StatsReport:
    """The rows, checks and per-p diagnostics of one run of one experiment kind at one seed."""

    experiment: str
    seed: int
    rows: list[ReportRow] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def row(self, p: int | None, statistic: str, estimate: float, **fields) -> None:
        """Append a row of this run; fields are the optional ReportRow columns."""
        self.rows.append(ReportRow(self.experiment, p, statistic, estimate, seed=self.seed, **fields))

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(CheckResult(name, passed, detail))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_csv(self, path: str | Path) -> None:
        lines = [CSV_HEADER] + [r.to_csv_line() for r in self.rows]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def to_summary_json(self, path: str | Path, digest: str, versions: dict[str, str]) -> None:
        def num(x):
            return None if x is None else float(x)

        payload = {
            "config_digest": digest,
            "seed": self.seed,
            "rows": [
                {
                    "experiment": r.experiment,
                    "p": None if r.p is None else int(r.p),
                    "statistic": r.statistic,
                    "estimate": num(r.estimate),
                    "stderr": num(r.stderr),
                    "prediction": num(r.prediction),
                    "deviation": num(r.deviation),
                    "n_samples": None if r.n_samples is None else int(r.n_samples),
                    "seed": None if r.seed is None else int(r.seed),
                }
                for r in self.rows
            ],
            "checks": [{"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in self.checks],
            "diagnostics": self.diagnostics,
            "versions": versions,
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def config_digest(payload: dict) -> str:
    """Stable digest of the resolved configuration (order-independent)."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
