"""Write references.json: values the output checks compare against.

    python3 benchmark/make_references.py [--hole-samples 400000]

The references were made once from the library as it stood when the
benchmark was defined, and are not remade by later changes: they are what
a changed library must still agree with.

- Hole probabilities at p=4, 6, 8 on the mc-counts annulus, from many
  more samples than a benchmark run draws, with their standard errors.
- `variance_bipotential` at p=40, 80 and 200 with the benchmark's test
  function, on the same truncation the experiments use.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from bergman_zeros import disc, experiments, sections  # noqa: E402
from bergman_zeros import statistics as bz_statistics  # noqa: E402

sys.path.insert(0, str(BENCH))
from workloads import HOLES_ANNULUS, HOLES_P, TEST_FUNCTION, THREADS  # noqa: E402
from worker import source_digest  # noqa: E402

REFERENCE_SEED = 987_654_321  # a seed of its own, apart from the small seeds benchmark runs use
BIPOTENTIAL_P = (40, 80, 200)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hole-samples", type=int, default=400_000)
    args = parser.parse_args(argv)
    m = args.hole_samples

    t0 = time.perf_counter()
    report = experiments.hole_probability_experiment(
        HOLES_P, disc.Annulus(**HOLES_ANNULUS), m, REFERENCE_SEED, threads=THREADS
    )
    holes = {}
    for row in report.rows:
        if row.statistic == "hole_probability":
            holes[str(row.p)] = {"estimate": row.estimate, "stderr": row.stderr}
    missing = [p for p in HOLES_P if str(p) not in holes]
    if missing:
        print(f"error: no hole observed at p={missing} in {m} samples", file=sys.stderr)
        return 1
    t1 = time.perf_counter()

    phi = bz_statistics.TestFunction(**TEST_FUNCTION)
    bipotential = {}
    for p in BIPOTENTIAL_P:
        space = disc.make_disc_space(p, sections.truncation_length(p, phi.b))
        bipotential[str(p)] = {"L": space.L, "value": bz_statistics.variance_bipotential(space, phi)}
    t2 = time.perf_counter()

    doc = {
        "source_sha256": source_digest(),
        "holes": {
            "p": list(HOLES_P), "annulus": HOLES_ANNULUS, "samples": m, "seed": REFERENCE_SEED,
            "by_p": holes,
        },
        "bipotential": {"testfunction": TEST_FUNCTION, "by_p": bipotential},
    }
    (BENCH / "references.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"holes {t1 - t0:.1f} s, bipotential {t2 - t1:.1f} s")
    for p, ref in holes.items():
        print(f"  hole p={p}: {ref['estimate']:.6g} +- {ref['stderr']:.2g} (rel {ref['stderr'] / ref['estimate']:.2g})")
    for p, ref in bipotential.items():
        print(f"  bipotential p={p} L={ref['L']}: {ref['value']!r}")
    assert all(math.isfinite(r["value"]) for r in bipotential.values())
    return 0


if __name__ == "__main__":
    sys.exit(main())
