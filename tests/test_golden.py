"""Golden digests: one small config per experiment kind must pass its checks and reproduce stored results.csv bytes.

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
those keys, and no results.csv digest moved.  It lost kernel-decay's `k`
when that key, set to 2 by every caller, became the constant
`experiments.FAR_K`; no digest moved then, nor when the reports came to
build their own rows and every Monte Carlo kind came to run through one
pass helper.  Only kernel-decay's `anchor` line moved when it came to read
"sqrt(24 log p/p)" with k = `FAR_K` = 2 put in; no digest moved then, nor
when the zero finders came to return `sections.Zeros` arrays.  No digest
and no listing line moved when a row whose boundary winding fails came to
be counted by `find_zeros` in place of a recount on perturbed radii, nor
when the test functions lost their `amplitude` (every bump has height 1).
No digest moved when the circle values came to be one evaluator
(`sections._circle_values`: the GEMM below 256 angles, a fold and one
inverse FFT from there), though the first winding pass of the
equidistribution and deviation counts went from the GEMM to the FFT.
No digest moved when the seed grid of `find_zeros_batch` came to take its
cell windings from int8 quadrant codes in place of wrapped phases: the
seeds are bit for bit the same.  The clt and variance digests were taken
again when that grid went from two rings per expected zero to one, a
declared output change: the zeros moved by at most 1.8e-12, every value
by at most 4.1e-11 relative (the clt KS p-value), and no other digest or
listing line moved.
The clt and variance digests were taken again when the Monte Carlo checks
came to take their tolerance from each row's own standard error, a
declared output change of two kinds of cell: the clt `ks_pvalue` row lost
its prediction (the KS level 0.01 is a test level, not a prediction), and
the `linstat_variance_mc` stderr became the fourth-moment SE of the sample
variance in place of a 500-resample bootstrap (0.5324 -> 0.5347 at p = 30,
0.3062 -> 0.2983 at p = 40).  Every other cell, each deviation included,
kept its bytes, and no other digest or listing line moved.  Since then
every golden config also runs with --check and must pass its checks.
The plateau, sup and l1log digests were taken again when the diagonal
kernel came to be the closed form (Eulerian polynomials, no truncation)
and the sup search came to run in log y by bounded Brent, a declared
output change.  Largest move per cell: the plateau error at p = 40,
a rounding floor, 2.3e-14 -> 8.9e-15 (exact: 1.4e-18; p = 20 kept its
bytes); the sup maximizers, the location of a flat maximum, 4.7e-9
(p = 50) and 1.6e-8 (p = 100) relative; the sup ratios kept their
bytes, and the deviation of p = 50 moved 5.6e-14, to within 2.5e-16 of a
40-digit maximum; the l1log values kept their bytes, and the
deviations, differences of close values, moved 8.2e-14 (p = 18) and
6.0e-13 (p = 36) absolute.  No other digest or listing line moved.
The clt and variance digests were taken again when the bipotential and
the correlation proxy came to be closed forms in y = -2 log r (the
Lipschitz deck sum, Parseval's term a Beta integral, a Gauss rule on the
hot window) in place of coefficient rows and an FFT over an angle grid,
a declared output change.  Largest move per cell: the bipotential
predictions 3.6e-6 (p = 30) and 4.9e-6 (p = 40) relative, the scaled
variance estimates the same, their deviations 2.8e-7 and 5.1e-7, the
|MC - bipotential| deviations 8.7e-6 and 3.5e-5 (differences of close
values); the clt `correlation_sum_diagnostic` 1.1e-11 relative.  No other
cell, digest or listing line moved.
The kernel_decay digest was taken again when the normalized kernel came to
be the Poincare series over the cusp's deck group (no truncation) in place
of the truncated L-series, whose phase sum cancels on far pairs, and the
driver came to check every pair against N_p = cosh(d / sqrt 2)^(-p), a
declared output change.  Largest move per cell: the far-regime max
5.8845e-12 -> 5.8811e-12 (the Poincare series is within 2.4e-14 of a
60-digit polylog on such pairs), the near-regime slope 1.0e-11 relative
and its deviation 2.5e-10 relative; the new row
`max_sech_power_log_gap` reads 5.2e-3, the deck terms of radial moves
that reach y = 20.5.  The clt and variance digests kept their bytes
through the move of `_log_n2` into `disc`, and no other digest or listing
line moved.  No digest and no listing line moved when the zero counting
function came to be the Eulerian closed form in place of the L-series,
though the seed grid and the winding angles read it, nor when kernel-decay
came to label its pairs by their measured distance and to turn a radial
move outward past the sup point y = p (in the golden no angular move
wraps, and no radial move passes y = 20.5).
No digest and no listing line moved when the circle values came to be the
fold and one inverse FFT at every angle count (the GEMM below 256 angles
went), Newton's derivative an einsum in place of a BLAS product, the
linear statistic one weighted bincount, and the log diagonal a sum of the
max-shifted Eulerian weights in place of scipy's logsumexp.
The deviation digest was taken again when the log-sup statistic went and
the golden config came to run p = 10 and 20, so that the digest covers
the fall check (the frequency must fall by more than 3 SE of the
difference), a declared output change: the log-sup frequency row of
p = 20 went, the row of p = 10 is new, and the count row of p = 20
kept its bytes.  No other digest or listing line moved.
The listing was taken again, a declared change of two anchor lines, when
the deviation anchor stopped naming the deleted log-sup scan and the
model-kernel anchor came to name the closed form of every radial
curvature in place of c/2 pi at constant curvature.  No digest moved
then: the step-halved Gram matrix came to take every other node of the
full one, and a radial gauge came to be 0 without a linear program, bit
for bit the same Gram matrices.
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
    code = main(["run", str(GOLDEN / f"{name}.yaml"), "--out", str(out), "--check"])
    assert code == 0, f"golden config '{name}' exited {code}"
    capsys.readouterr()
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == DIGESTS[name], f"results.csv of golden config '{name}' changed"


def test_listing_bytes(capsys):
    assert main(["list", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "list.json").read_text(encoding="utf-8")
