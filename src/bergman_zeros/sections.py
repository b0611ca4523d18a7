"""Gaussian holomorphic sections of the punctured-disc model and their zeros.

A random section is  S(z) = sum_ell eta_ell c_ell z^ell  with i.i.d.
standard complex Gaussian coefficients eta.  Zeros in an annulus are
extracted two independent ways, which serve as cross-oracles for each
other: Aberth iteration on all roots of the truncated polynomial, from
its Newton polygon (`find_zeros`), and winding numbers of the boundary
phase (argument principle, `count_zeros_batch`).

`find_zeros_batch` finds the zeros of a whole batch without eigensolves.
Cells of nonzero winding on a polar grid over the annulus seed Halley's
method for every row at once; a row is certified when its distinct zeros
number its argument-principle count.  The grid has the power of two at
or above the winding count's angles at b, and one ring per expected
zero.  Its rings are evaluated in blocks, one FFT call per block.  A
cell's winding is a quarter of the quarter turns of its four edges,
read from int8 quadrant codes of the values; only an edge of two
quadrants takes an angle.  A seed's terms are scaled at its cell's
inner ring, and Halley's method takes its last, cubically small step
without a confirming sweep: most seeds converge in three sweeps.
`find_zeros` is the oracle of this path and its fallback: it solves every
row that is not certified; each of its Aberth steps evaluates the terms
scaled by its point's radius.  Both return one `Zeros` of flat
arrays: the row, point and multiplicity of every zero, and per row its
unconverged iterates and its fallback.

Every evaluation on n equispaced angles of a circle goes through
`_circle_values`: a fold of ell mod n and one inverse FFT, at every n.
Outside `find_zeros`, the oracle of the rare fallback rows, nothing here
takes a matrix product: the Monte Carlo chunks of `experiments` call no
threaded BLAS, and its chunk pool alone owns the threads.

The winding numbers of a whole batch come from one vectorized engine.
A first pass evaluates every section on a shared grid of the circle, of
2^a 3^b angles (`_circle_values`), and sums the small phase increments
of all rows at once.  The few large increments, almost always caused by
a zero close to the circle, form one flat queue of segments that is
bisected for all rows together; a midpoint t is summed from the powers
of e^{it}, by cumulative product.  A row on which the section vanishes
on the circle, or whose segments do not settle, fails; every job hands
it to `find_zeros`.

Randomness is drawn from counter-based Philox streams keyed by
(master seed, path).  `sample_etas` draws a whole batch of coefficient
rows, in sample order, from one stream before any work is split among
threads, so every sample is reproducible under any thread schedule.
Paired comparisons across p take column prefixes of one draw at the
largest truncation length, so every p sees the same leading coefficients.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .disc import Annulus, DiscSpace, TruncationError, adaptive_truncation, expected_zero_measure, zero_counting_function

__all__ = [
    "Zeros",
    "count_zeros_batch",
    "find_zeros",
    "find_zeros_batch",
    "sample_etas",
    "section_stream",
    "truncation_length",
]

# Relative tail-variance tolerance guaranteeing that truncation does not
# move zeros inside the working annulus.
ZERO_TAIL_EPS = 1e-8

# Double roots are resolvable only to ~sqrt(machine eps) by Aberth or
# Newton iteration, so the merge radius sits above that scale; zeros of a
# Gaussian section repel, making spurious merges negligible.
MERGE_DISTANCE = 1e-7
NEWTON_TOL = 1e-12
# A Halley step below this, relative, and 100x smaller than the one before is taken as the last.
HALLEY_TOL = 1e-6
NEWTON_MAX_ITER = 50
# find_zeros: Aberth sweeps before a moving root is counted unconverged, and the turn of the starts.
ABERTH_MAX_ITER = 400
ABERTH_ANGLE = 0.7
# Seed grid of find_zeros_batch: the largest ratio of a cell's step in
# log r to its angular step.  Cells much thinner than square put every zero
# next to an arc, whose increment then aliases; much thicker ones have long
# radial edges, whose increments alias too.
MAX_ASPECT = 8.0
# Every blocked array pass (winding rows, the bipotential's hot windows)
# holds at most this many entries per temporary: 1 MB of float64, 2 MB of
# complex128, sized to a 2 MiB L2.  The bipotential takes
# 8-14 ms at p = 200 and 41-59 ms at p = 1 280 on (0.1, 0.9) from 2^15 to
# 2^19 entries alike (2 vCPUs, median of 7).
BLOCK_ENTRIES = 1 << 17


class Zeros(NamedTuple):
    """Zero divisors of a batch of sections in an annulus, sorted by (row, radius, angle).

    Zero k lies in row row[k], at z[k], with multiplicity mult[k].
    unconverged[i] counts the iterates of row i that stopped unconverged,
    and fallback[i] says that `find_zeros_batch` solved row i by `find_zeros`.
    """

    row: np.ndarray
    z: np.ndarray
    mult: np.ndarray
    unconverged: np.ndarray
    fallback: np.ndarray


def section_stream(seed: int, path: Sequence[int] = ()) -> np.random.Generator:
    """Counter-based Philox generator for stream (seed, *path)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(x) for x in path))
    return np.random.Generator(np.random.Philox(ss))


def sample_etas(space: DiscSpace, seed: int, path: Sequence[int], samples: int) -> np.ndarray:
    """`samples` rows of eta ~ CN(0, 1)^L, in sample order, from the one stream (seed, *path).

    Row i is the stream's next 2L standard normals, interleaved re/im (the
    memory layout of complex128): a k-sample draw is the first k rows of
    any longer one, and one row drawn at a larger L starts with the row
    drawn at a smaller one.  Many rows shared across p are column prefixes
    of one draw at the largest L instead (`experiments._draw`).  The
    normals are written into the returned array and scaled in place, so
    nothing else of its size is held.
    """
    etas = np.empty((samples, space.L), dtype=np.complex128)
    section_stream(seed, path).standard_normal(out=etas.view(np.float64))
    etas /= math.sqrt(2.0)
    return etas


def _scales(space: DiscSpace, log_r) -> tuple[np.ndarray, np.ndarray]:
    """Scales c_ell r^ell over the largest of them (finite at any r), and its log: term ell is eta_ell times scale ell.

    log_r is a scalar or one per row, taken by the caller: math.log and np.log may differ.
    """
    log_amp = 0.5 * space.log_coeffs + np.multiply.outer(log_r, space.ells)
    shift = np.max(log_amp, axis=-1)
    return np.exp(log_amp - shift[..., None]), shift


def _powers(w: np.ndarray, L: int) -> np.ndarray:
    """w^1 .. w^L along a new last axis, by cumulative product: near 1 in size while |w| is."""
    return np.cumprod(np.broadcast_to(w[..., None], (*w.shape, L)), axis=-1)


def _circle_values(coeff: np.ndarray, n: int) -> np.ndarray:
    """sum_ell coeff_ell e^{i ell theta_j} at the n angles theta_j = 2 pi j / n, ell = 1 .. L, per row.

    Unnormalised: the values of the section itself.  Each n-wide block of
    ell is added, in order, into ell mod n; then one inverse FFT, in place:
    a second array of its size faults fresh pages on every call, 4x the
    time of the whole call at 256 rows of L = 35 on n = 128.
    """
    m, L = coeff.shape
    folded = np.zeros((m, n), dtype=np.complex128)
    for lo in range(0, L + 1, n):
        block = coeff[:, max(lo - 1, 0) : lo + n - 1]  # ell = max(lo, 1) .. lo + n - 1
        start = int(lo == 0)
        folded[:, start : start + block.shape[1]] += block
    return np.fft.ifft(folded, axis=1, norm="forward", out=folded)


def truncation_length(p: int, b: float) -> int:
    """Smallest L with relative tail variance of the field on |z| <= b below ZERO_TAIL_EPS^2."""
    return adaptive_truncation(p, b, rel_tol=ZERO_TAIL_EPS**2)


def _require_adequate(space: DiscSpace, b: float) -> None:
    """TruncationError unless space.L reaches the `truncation_length` of radius b."""
    if space.L < (required := truncation_length(space.p, b)):
        raise TruncationError(f"truncation L={space.L} inadequate at radius {b:.6g}; need L >= {required}", required)


# ---------------------------------------------------------------------------
# root extraction: Halley, Aberth


def _newton(space: DiscSpace, coeff: np.ndarray, z: np.ndarray, rho: np.ndarray):
    """Halley's method on the sections of the scaled coefficient rows coeff, one starting point z per row.

    All points are iterated at once.  Term ell of point q is
    coeff[q, ell] (z / rho[q])^ell: the row is scaled at a radius rho
    near the start (`_scales`), and the powers, a cumulative product,
    stay within e^(L |log(|z| / rho)|) in size whatever the radius.
    With t the terms and n = sum t / sum ell t, the step is
    z n / (1 - n/2 sum ell (ell - 1) t / sum ell t), from the same terms.

    A point converges on a step below NEWTON_TOL * max(1, |z|), or below
    HALLEY_TOL * max(1, |z|) and at most 1/100 of its previous one, and
    that last step is taken.  Convergence is cubic: the error left is
    about K |step|^3, K = |c2^2 - c3| at the zero, c_k = S^(k) / (k! S')
    (K = 100 * 101 / (2 |w|^2) for z^100 (z - w)).  At the zeros of drawn
    sections K stayed below 0.25 (L / |z|)^2 (p = 40 to 300 on
    (0.35, 0.65), p = 60 on (0.1, 0.8)), so a last step below 1e-6
    leaves at most 2e-12 |z| at p = 300.
    A point that leaves the punctured disc, turns non-finite or meets a
    zero derivative stops there unconverged, and so does one still
    moving after NEWTON_MAX_ITER steps.
    """
    z = np.array(z, dtype=np.complex128)
    converged = np.zeros(z.shape, dtype=bool)
    active = np.arange(z.size)
    last = np.zeros(z.size)  # no first step is accepted by its ratio
    bend = space.ells * (space.ells - 1.0)
    # a point that wanders far from its start may overflow the powers; its
    # step is then non-finite, and it stops there
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            za = z[active]
            rad = np.abs(za)
            ok = np.isfinite(za) & (rad < 1.0) & (rad > 0.0)
            if not ok.all():
                active, za, rad, coeff, last = active[ok], za[ok], rad[ok], coeff[ok], last[ok]
            if active.size == 0:
                break
            terms = _powers(za / rho[active], space.L)
            terms *= coeff
            # the derivatives by einsum: a BLAS product would thread inside the chunk pool
            slope = np.einsum("ql,l->q", terms, space.ells)
            n = terms.sum(axis=1) / slope
            step = za * n / (1.0 - 0.5 * n * np.einsum("ql,l->q", terms, bend) / slope)
            ok = np.isfinite(step)
            size, tol = np.abs(step), np.maximum(1.0, rad)
            done = ok & ((size < NEWTON_TOL * tol) | ((size < HALLEY_TOL * tol) & (100.0 * size <= last)))
            z[active[ok]] = za[ok] - step[ok]
            converged[active[done]] = True
            go = ok & ~done
            active, coeff, last = active[go], coeff[go], size[go]
    return z, converged


def _polygon_starts(y: np.ndarray) -> tuple[np.ndarray, int]:
    """Aberth starts for P(w) = sum_k a_k w^k from y_k = log|a_k|, and the least k with a_k != 0.

    An edge of length n and slope s of the Newton polygon, the upper hull
    of (k, y_k), puts n starts on |w| = e^-s, turned against its neighbours.
    """
    hull: list[int] = []
    for i in np.flatnonzero(np.isfinite(y)):
        # drop the last vertex while it lies on or below the chord to i
        while len(hull) > 1 and (y[hull[-1]] - y[hull[-2]]) * (i - hull[-2]) <= (y[i] - y[hull[-2]]) * (hull[-1] - hull[-2]):
            hull.pop()
        hull.append(i)
    starts = [np.zeros(0, dtype=np.complex128)]
    for e, (i, j) in enumerate(zip(hull[:-1], hull[1:])):
        angles = 2.0 * math.pi * (np.arange(j - i) / (j - i) + e / (hull[-1] - hull[0])) + ABERTH_ANGLE
        starts.append(np.exp((y[i] - y[j]) / (j - i) + 1j * angles))
    return np.concatenate(starts), int(hull[0]) if hull else 0


def _sorted_candidates(own: np.ndarray, z: np.ndarray, region: Annulus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidates in the open annulus, as the winding counts see it, sorted by row, radius, angle.

    Each is flagged if within MERGE_DISTANCE of its predecessor in its row.
    """
    rad = np.abs(z)
    keep = (rad > region.a) & (rad < region.b)
    order = np.lexsort((np.angle(z[keep]), rad[keep], own[keep]))
    own, z = own[keep][order], z[keep][order]
    close = (np.diff(own, prepend=-1) == 0) & (np.abs(np.diff(z, prepend=np.nan)) < MERGE_DISTANCE)
    return own, z, close


def find_zeros(space: DiscSpace, eta: np.ndarray, region: Annulus) -> Zeros:
    """Zeros in the annulus of the section with coefficients eta, by Aberth iteration on all roots of S(z) / z.

    The roots start on the Newton polygon's circles; each sweep scales a root's terms at its
    current radius.  A root freezes after a step below NEWTON_TOL * max(1, |z|); one still
    moving after ABERTH_MAX_ITER sweeps, or stopped by a non-finite step, is counted and kept.
    Roots with a < |z| < b are merged within MERGE_DISTANCE, sorted by radius, angle: one row.
    ValueError if eta is not one row of length space.L.
    """
    if eta.shape != (space.L,):
        raise ValueError(f"coefficient row of shape {eta.shape} does not match the truncation length L = {space.L}")
    _require_adequate(space, region.b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z, k0 = _polygon_starts(np.log(np.abs(eta)) + 0.5 * space.log_coeffs)
        degrees = space.ells - (k0 + 1.0)  # of the terms of P / w^k0
        active, converged = np.arange(z.size), np.zeros(z.size, dtype=bool)
        for _ in range(ABERTH_MAX_ITER):
            if active.size == 0:
                break
            za, rad = z[active], np.abs(z[active])
            coeff = eta * _scales(space, np.log(rad))[0]
            terms = _powers(za / rad, space.L) * coeff
            newton = za * terms.sum(axis=1) / (terms @ degrees)
            diff = za[:, None] - z
            diff[np.arange(active.size), active] = np.inf
            step = newton / (1.0 - newton * np.sum(1.0 / diff, axis=1))
            ok = np.isfinite(step)
            done = ok & (np.abs(step) < NEWTON_TOL * np.maximum(1.0, rad))
            converged[active[done]] = True
            z[active[ok]] = za[ok] - step[ok]
            active = active[ok & ~done]
    unconverged = np.array([np.sum(~converged)])
    own, z, close = _sorted_candidates(np.zeros(z.size, dtype=np.intp), z, region)
    # each run of close candidates is one zero
    first = np.flatnonzero(~close)
    return Zeros(own[first], z[first], np.diff(np.append(first, z.size)), unconverged, np.zeros(1, dtype=bool))


# ---------------------------------------------------------------------------
# argument-principle counting

# Checks of the phase increments per contour (the first on the initial
# grid, one after each midpoint split); a segment still unresolved after
# the last almost certainly holds a zero on the contour.
MAX_ROUNDS = 40
# A contour value below this fraction of the row's largest is a zero on it.
MAGNITUDE_FLOOR = 1e-13


def _initial_points(space: DiscSpace, r: float) -> int:
    # the winding number is close to n, the expected zero count of the
    # disc |z| < r; 8x oversampling keeps nearly all increments below
    # pi/2 on the first pass.  The count is the least 2^a 3^b at or above
    # that, and at least 64: a fast FFT length, often well below the next
    # power of two (2 592 for 4 096 at p = 200, r = 0.7).  Multiples of 64
    # such as 2 368 = 2^6 37 were slower than the power of two; 5 as a
    # third factor gained nothing.
    least = max(64, math.ceil(8.0 * (zero_counting_function(space.p, r) + 8.0)))
    # per 3^k, the least 2^a with 2^a 3^k >= least: 2^a >= ceil(least / 3^k)
    return min(3**k << (-(-least // 3**k) - 1).bit_length() for k in range(least.bit_length()))


def _winding(space: DiscSpace, etas: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Winding numbers of the rows of etas along |z| = r, and the rows that failed.

    Every term is eta_ell times one scale row (`_scales` at r).  Pass one
    evaluates every row on a shared grid of `_initial_points` angles
    (`_circle_values` per row block).  The phase increment of a segment is
    the angle of v1 * conj(v0), already wrapped into (-pi, pi].
    Increments below pi/2 in size are final and summed per row at once.
    The others go into one flat queue of segments (owner row, theta0,
    theta1, v0, v1).  Each round evaluates every queued midpoint t from
    the powers of one unit complex e^{it} per segment (`_powers`), in
    blocks of segments, and splits each segment in two; halves that are
    now small are added to their row, the rest stay queued.

    A row fails if the section (nearly) vanishes at an evaluated point,
    if its winding is not an integer, or if segments remain after
    MAX_ROUNDS checks; its winding entry is then meaningless, and callers
    count the row by `find_zeros`.
    """
    m = etas.shape[0]
    if m == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    n_init = _initial_points(space, r)
    scale = _scales(space, math.log(r))[0]
    thetas = np.linspace(0.0, 2.0 * math.pi, n_init, endpoint=False)
    ends = np.append(thetas[1:], thetas[0] + 2.0 * math.pi)
    total = np.empty(m)
    lo_mag = np.empty(m)
    hi_mag = np.empty(m)
    queue: list[tuple[np.ndarray, ...]] = []
    # a block holds about four (row, angle) temporaries at once, together
    # within BLOCK_ENTRIES; freed, they stay below glibc's trim threshold and
    # the next block reuses their pages.  A holes run alone (4000 rows at
    # p = 4, 6, 8, n = 128) took 17 174 page faults with the whole batch
    # scaled at once and BLOCK_ENTRIES per temporary, and 1 468 as here.
    step = max(1, BLOCK_ENTRIES // (4 * n_init))
    for lo in range(0, m, step):
        vals = _circle_values(etas[lo : lo + step] * scale, n_init)
        mags = np.abs(vals)
        lo_mag[lo : lo + step] = mags.min(axis=1)
        hi_mag[lo : lo + step] = mags.max(axis=1)
        inc = np.roll(vals, -1, axis=1)
        inc *= vals.conj()
        dphi = np.angle(inc)
        bad = np.abs(dphi) >= math.pi / 2.0
        total[lo : lo + step] = np.sum(dphi, axis=1, where=~bad)
        rows, cols = np.divmod(np.flatnonzero(bad), n_init)
        queue.append((rows + lo, thetas[cols], ends[cols], vals[rows, cols], vals[rows, (cols + 1) % n_init]))
    own, t0, t1, v0, v1 = (np.concatenate(parts) for parts in zip(*queue))

    step = max(1, BLOCK_ENTRIES // space.L)
    for _ in range(MAX_ROUNDS - 1):
        live = lo_mag[own] >= MAGNITUDE_FLOOR * hi_mag[own]
        own, t0, t1, v0, v1 = own[live], t0[live], t1[live], v0[live], v1[live]
        if own.size == 0:
            break
        tm = 0.5 * (t0 + t1)
        vm = np.empty(own.size, dtype=np.complex128)
        for lo in range(0, own.size, step):
            terms = _powers(np.exp(1j * tm[lo : lo + step]), space.L)
            terms *= scale
            vm[lo : lo + step] = np.einsum("ql,ql->q", terms, etas[own[lo : lo + step]])
        np.minimum.at(lo_mag, own, np.abs(vm))
        np.maximum.at(hi_mag, own, np.abs(vm))
        own, t0, t1 = np.concatenate([own, own]), np.concatenate([t0, tm]), np.concatenate([tm, t1])
        v0, v1 = np.concatenate([v0, vm]), np.concatenate([vm, v1])
        d = np.angle(v1 * v0.conj())
        bad = np.abs(d) >= math.pi / 2.0
        np.add.at(total, own[~bad], d[~bad])
        own, t0, t1, v0, v1 = own[bad], t0[bad], t1[bad], v0[bad], v1[bad]

    w = total / (2.0 * math.pi)
    wi = np.rint(w)
    failed = (lo_mag < MAGNITUDE_FLOOR * hi_mag) | (np.abs(w - wi) > 1e-6)
    failed[own] = True
    return wi.astype(np.int64), failed


def _counts(space: DiscSpace, etas: np.ndarray, region: Annulus) -> tuple[np.ndarray, np.ndarray]:
    """Winding-number differences of the two boundary circles, and the rows on which either winding failed."""
    _require_adequate(space, region.b)
    wb, fb = _winding(space, etas, region.b)
    wa, fa = _winding(space, etas, region.a)
    return wb - wa, fb | fa


def count_zeros_batch(space: DiscSpace, etas: np.ndarray, region: Annulus) -> np.ndarray:
    """Zero counts in the open annulus for a batch of coefficient rows, one int per row.

    Each count is the winding-number difference of the two boundary
    circles.  A row on which either winding fails is counted by
    `find_zeros`, as in `find_zeros_batch`.
    """
    counts, unresolved = _counts(space, etas, region)
    for i in np.flatnonzero(unresolved):
        counts[i] = find_zeros(space, etas[i], region).mult.sum()
    return counts


# ---------------------------------------------------------------------------
# batched zeros: grid argument principle, Halley, certificate by the count


def _grid_radii(space: DiscSpace, region: Annulus, dtheta: float) -> np.ndarray:
    """Circles of the seed grid: one step inside a, then a, then steps up to b or just beyond.

    In u = 1 / |log r| the curvature mass, and so the expected zero count,
    is uniform; a step holds one expected zero, which in log r is
    log(r)^2 du, kept between 1 and MAX_ASPECT angular steps dtheta.  The
    grid thus reaches past both boundaries, and no zero of the annulus sits
    next to the grid's own edge.  Half a ring per zero lost 54-83 % of rows
    to the fallback (p = 40, 80, 200 on (0.35, 0.65)).
    """
    u_a, u_b = -1.0 / math.log(region.a), -1.0 / math.log(region.b)
    du = (u_b - u_a) / max(1.0, expected_zero_measure(space.p, region))

    def step(r: float) -> float:
        return min(MAX_ASPECT * dtheta, max(dtheta, math.log(r) ** 2 * du))

    radii = [region.a * math.exp(-step(region.a)), region.a]
    while radii[-1] < region.b:
        radii.append(radii[-1] * math.exp(step(radii[-1])))
    radii[-1] = min(radii[-1], 0.5 * (1.0 + region.b))
    return np.array(radii)


def _quadrants(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadrant codes of a circle's values, and the quarter turns of its arcs, both int8.

    vals holds rows of values on n equispaced angles.  A code counts
    counterclockwise, 0..3, from the sign bit of Im and from Re < 0, so the
    closed quadrant of every code holds np.angle of its value: (x, -0.0) is
    3 at angle -0.0, (-x, -0.0) is 2 at -pi, and (+-0.0, y) is 0 at pi/2,
    never 1 (by the sign bit of Re, (-0.0, y) and (-0.0, -y) would be three
    turns apart, a half turn by np.angle).  Arc j runs from angle j to
    angle j + 1, the last back to 0.
    """
    im_neg = np.signbit(vals.imag).view(np.int8)
    quad = 2 * im_neg + (im_neg ^ (vals.real < 0.0).view(np.int8))
    return quad, _quarter_turns(np.roll(quad, -1, axis=1) - quad, vals, vals, 1)


def _quarter_turns(dq: np.ndarray, v0: np.ndarray, v1: np.ndarray, shift: int) -> np.ndarray:
    """Signed quarter turns of the edges from v0[i, j] to v1[i, j + shift mod n], whose codes differ by dq (int8).

    A code difference of 1 or 3 mod 4 is one turn either way.  One of 2 is
    two turns, signed as the edge's phase increment np.angle(v1) -
    np.angle(v0) wrapped into [-pi, pi]: only those few edges take an angle
    (the sign of Im(v1 conj v0) is that of a signed zero at a half turn).
    The turns of a closed path of edges are then 4 x the sum of its wrapped
    increments over 2 pi, bit for bit, as long as no value is exactly 0.
    """
    turns = ((dq + 1) & 3) - 1
    two = np.flatnonzero(turns == 2)
    rows, cols = np.divmod(two, turns.shape[1])
    d = np.angle(v1[rows, (cols + shift) % turns.shape[1]]) - np.angle(v0[rows, cols])
    turns.ravel()[two] = np.where(d - 2.0 * math.pi * np.rint(d / (2.0 * math.pi)) > 0.0, 2, -2)
    return turns


def _cell_windings(inner: tuple, outer: tuple) -> np.ndarray:
    """Winding numbers (int8) of the cells between two circles, each (vals, *`_quadrants`(vals)).

    Cell j spans angles j to j + 1.  Its edges, counterclockwise: the outer
    arc forward, inward at angle j + 1, the inner arc backward, outward at
    angle j; a quarter of their quarter turns.
    """
    radial = _quarter_turns(outer[1] - inner[1], inner[0], outer[0], 0)
    return (outer[2] - np.roll(radial, -1, axis=1) - inner[2] + radial) >> 2


def _seed_angles(space: DiscSpace, b: float) -> int:
    """Angles of the seed grid: the power of two at or above `_initial_points(space, b)`.

    That is max(64, 2^ceil(log2 8 (n + 8))), the angle count the grid's
    cells, and so its Halley starts, were sized with.
    """
    return 1 << (_initial_points(space, b) - 1).bit_length()


def _grid_seeds(space: DiscSpace, etas: np.ndarray, region: Annulus) -> tuple[np.ndarray, ...]:
    """Halley starting points from the cells of a polar grid over the annulus, with their scaled terms.

    The angles are n_a = `_seed_angles(space, b)`, the circles those of
    `_grid_radii`, whose scale rows are one `_scales` call.  The circles
    go in blocks of rings, each at most BLOCK_ENTRIES entries of values
    and of scaled coefficients, or one ring if that alone is more: one
    `_circle_values` and one `_quadrants` call per block, kept as int8
    quadrant codes.  The cells between consecutive rings are slices of
    the block, and those between blocks take the previous block's last
    ring.  A cell of winding k >= 1 (`_cell_windings`) gives k points,
    spread along its diagonal.

    Returns (owner row, point, rho, coefficient row), per point: rho is
    the radius of its cell's inner ring, and the row is its section's
    scaled at rho, as `_newton` takes them.
    """
    m = etas.shape[0]
    n_a = _seed_angles(space, region.b)
    radii = _grid_radii(space, region, 2.0 * math.pi / n_a)
    scale = _scales(space, np.array([math.log(r) for r in radii]))[0]
    per = max(1, BLOCK_ENTRIES // max(1, m * max(n_a, space.L)))
    windings = []  # int8, of the cells between rings i and i + 1 for every row, in ring order
    for lo in range(0, radii.size, per):
        rings = scale[lo : lo + per]
        vals = _circle_values((rings[:, None, :] * etas).reshape(-1, space.L), n_a)
        block = (vals, *_quadrants(vals))
        if lo:  # from the previous block's last ring
            windings.append(_cell_windings(prev, tuple(a[:m] for a in block)))
        if len(rings) > 1:
            windings.append(_cell_windings(tuple(a[:-m] for a in block), tuple(a[m:] for a in block)))
        prev = tuple(a[-m:] for a in block)
    k = np.concatenate(windings)
    cells = np.flatnonzero(k >= 1)
    pairs, cols = np.divmod(cells, n_a)
    reps = k.ravel()[cells].astype(np.int64)
    first = np.repeat(np.cumsum(reps) - reps, reps)
    frac = (np.arange(first.size) - first + 0.5) / np.repeat(reps, reps)
    ring, own = np.divmod(np.repeat(pairs, reps), m)
    angle = (np.repeat(cols, reps) + frac) * (2.0 * math.pi / n_a)
    rho = radii[ring]
    coeff = etas[own]
    coeff *= scale[ring]
    return own, rho * (radii[ring + 1] / rho) ** frac * np.exp(1j * angle), rho, coeff


def find_zeros_batch(space: DiscSpace, etas: np.ndarray, region: Annulus) -> Zeros:
    """Zeros in the annulus of every row of etas, certified by their winding counts.

    Grid cells of nonzero winding, evaluated in blocks of rings, seed
    Halley's method with each seed's terms scaled at its cell's inner ring
    (`_grid_seeds`, `_newton`); most seeds take their last step, cubically
    small, on the third sweep.  Converged points with a < |z| < b are the
    candidate zeros of their row.  A row is certified when its candidates are
    pairwise at least MERGE_DISTANCE apart and their number equals its
    argument-principle count: then they are all of its zeros, each
    simple, and its unconverged seeds are counted.  Every other row (a
    merge, a missed or extra zero, a failed boundary winding) falls back
    to `find_zeros`, whose zeros and unconverged count it takes.
    """
    m = etas.shape[0]
    counts, unresolved = _counts(space, etas, region)
    own, z, rho, coeff = _grid_seeds(space, etas, region)
    z, converged = _newton(space, coeff, z, rho)
    unconverged = np.bincount(own[~converged], minlength=m)
    # a close pair with a radius between is an extra candidate: the count rejects it
    own, z, close = _sorted_candidates(own[converged], z[converged], region)
    fallback = unresolved | (np.bincount(own[close], minlength=m) > 0) | (np.bincount(own, minlength=m) != counts)
    keep = ~fallback[own]
    rows, zs, mults = [own[keep]], [z[keep]], [np.ones(keep.sum(), dtype=np.int64)]
    for i in np.flatnonzero(fallback):
        oracle = find_zeros(space, etas[i], region)
        rows.append(oracle.row + i)
        zs.append(oracle.z)
        mults.append(oracle.mult)
        unconverged[i] = oracle.unconverged[0]
    own = np.concatenate(rows)
    order = np.argsort(own, kind="stable")
    return Zeros(own[order], np.concatenate(zs)[order], np.concatenate(mults)[order], unconverged, fallback)
