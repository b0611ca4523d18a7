"""Golden digests: one small config per experiment kind must reproduce stored results.csv bytes.

The SHA-256 digests in tests/golden/digests.json were taken before the
refactors they guard: the three count configs from the per-row winding
engine, the other seven from the code before the experiment registry.
The clt and variance digests were taken again when the linear statistics
moved from companion roots to the batched zero finder, a declared output
change (every value within 1.5e-10 relative of the old one).  The sup
digest was taken again when the kernel functions began to take arrays:
its logs and exponentials went from `math` to numpy, whose results differ
in the last bit for a few arguments, and the maximizer of p = 50, the
location of a flat maximum, moved by 7e-11 relative.  The variance
digest was taken again when the bipotential stopped building the dense
(r, r', angle) grid of N_p (exact Parseval far field, R only where
N_p^2 > 1e-4): the bipotential values moved by at most 4.5e-11 relative,
and the |MC - bipotential| deviations, being differences, by 2.2e-9.
The five Monte Carlo digests (holes, equidistribution, deviation, clt,
variance) were taken again when the coefficient rows at p came to be one
block draw from the stream (seed, p), or one draw from (seed,) at the
largest L shared by column prefixes when paired, in place of one stream
per sample: every Monte Carlo row is a new sample, a declared output
change.  The kernel digests and the listing did not move.
No digest moved when the single-section API went (the section wrappers,
the scalar evaluators and `KernelValue`; the scalar oracles moved into
tests/oracles.py) and `poincare_distance` came to take arrays.
A change that alters any of them changes program output; it must be
declared as such and re-baselined in the same change, never silently.
tests/golden/list.json holds `bergman-zeros list --json`; the config
keys, types and defaults live in the driver signatures, so editing one
changes it.  It was taken before the registry, and again when the 11
keys that no config set (the plateau radii, grid and tolerance, the sup
tolerance, the parity step and tolerance, the equidistribution slack,
the variance tolerance, the KS level and the far-kernel tolerance)
became module constants of `experiments`: the listing lost exactly
those keys, and no results.csv digest moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bergman_zeros.cli import main

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_results_csv_digest(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["run", str(GOLDEN / f"{name}.yaml"), "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == DIGESTS[name], f"results.csv of golden config '{name}' changed"


def test_listing_bytes(capsys):
    assert main(["list", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "list.json").read_text(encoding="utf-8")
