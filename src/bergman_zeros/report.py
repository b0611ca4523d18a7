"""Tabular results: rows, reports, and the CSV/JSON artifact writers.

The CSV schema is a stable contract:

    experiment,p,statistic,estimate,stderr,prediction,deviation,n_samples,seed

Values are formatted with a fixed 12-significant-digit format so a rerun
with the same (config, seed) is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path


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

    def values(self) -> dict:
        """Every column's value, in column order, converted by its annotation.

        Text stays as it is, p, n_samples and seed become int, the rest float.
        """
        out = {}
        for f in fields(self):
            x = getattr(self, f.name)
            if x is not None and f.type != "str":
                x = int(x) if f.type.startswith("int") else float(x)
            out[f.name] = x
        return out

    def to_csv_line(self) -> str:
        cells = []
        for x in self.values().values():
            if x is None:
                cells.append("")
            elif isinstance(x, float):
                cells.append(format(x, ".12g"))
            else:
                cells.append(str(x))
        return ",".join(cells)


CSV_HEADER = ",".join(f.name for f in fields(ReportRow))


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

    def row(
        self,
        p: int | None,
        statistic: str,
        estimate: float,
        stderr: float | None = None,
        prediction: float | None = None,
        n_samples: int | None = None,
    ) -> ReportRow:
        """Append a row of this run and return it; its deviation is |estimate - prediction| when it has a prediction."""
        deviation = None if prediction is None else abs(estimate - prediction)
        row = ReportRow(self.experiment, p, statistic, estimate, stderr, prediction, deviation, n_samples, self.seed)
        self.rows.append(row)
        return row

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def check_within_se(self, name: str, row: ReportRow) -> None:
        """Check that a Monte Carlo row lies within 3 of its own standard errors of its prediction."""
        bound = 3.0 * row.stderr
        self.check(name, row.deviation <= bound, f"|estimate - prediction| = {row.deviation:.4g} vs 3 SE = {bound:.4g}")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_csv(self, path: str | Path) -> None:
        lines = [CSV_HEADER] + [r.to_csv_line() for r in self.rows]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def to_summary_json(self, path: str | Path, digest: str, versions: dict[str, str]) -> None:
        payload = {
            "config_digest": digest,
            "seed": self.seed,
            "rows": [r.values() for r in self.rows],
            "checks": [{"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in self.checks],
            "diagnostics": self.diagnostics,
            "versions": versions,
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def config_digest(payload: dict) -> str:
    """Stable digest of the resolved configuration (order-independent)."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
