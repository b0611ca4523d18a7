"""Weighted Bergman space of the Poincare punctured unit disc.

The space at tensor power p has the orthonormal basis
``(ell^(p-1) / (2 pi (p-2)!))^(1/2) z^ell`` for ell = 1, 2, ... and the
diagonal kernel function

    B_p(z) = |log|z|^2|^p / (2 pi (p-2)!) * sum_ell ell^(p-1) |z|^(2 ell).

Every series here is evaluated in the log domain (log-gamma plus
log-sum-exp): at p ~ 200 the terms span far more than 300 orders of
magnitude, so direct summation is impossible in double precision.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, logsumexp

__all__ = [
    "Annulus",
    "DiscSpace",
    "DomainError",
    "TruncationError",
    "adaptive_truncation",
    "c1_area",
    "expected_zero_measure",
    "hyperbolic_area",
    "kernel_function",
    "log_bergman_l1",
    "log_kernel_function",
    "make_disc_space",
    "normalized_kernel",
    "poincare_distance",
    "sup_kernel",
    "zero_counting_function",
]

LOG_2PI = math.log(2.0 * math.pi)

# Relative tail mass below which a truncated basis is considered exact
# for kernel evaluation purposes.
KERNEL_TAIL_RTOL = 1e-14
# Coarse grid of sup_kernel in t = log(-log r), and Gauss-Legendre nodes
# of log_bergman_l1.
SUP_GRID_POINTS = 256
L1_QUAD_NODES = 512


class DomainError(ValueError):
    """A point lies outside the punctured unit disc / an invalid region."""


class TruncationError(RuntimeError):
    """The basis truncation is too short for the requested radius.

    Attributes
    ----------
    required_length : int
        Smallest truncation length that satisfies the tail bound.
    """

    def __init__(self, message: str, required_length: int):
        super().__init__(message)
        self.required_length = required_length


@dataclass(frozen=True)
class Annulus:
    """Open annulus {a < |z| < b} inside the punctured unit disc."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a <= self.b < 1.0):
            raise DomainError(f"annulus radii must satisfy 0 < a <= b < 1, got ({self.a}, {self.b})")

    @property
    def is_empty(self) -> bool:
        return self.a >= self.b


@dataclass(frozen=True)
class DiscSpace:
    """Truncated Bergman space of the punctured disc at tensor power p.

    ``log_coeffs[i]`` is ``2 log c_ell`` for ell = i + 1, the log of the
    squared basis amplitude ``ell^(p-1) / (2 pi (p-2)!)``.  Immutable; all
    operations on it are pure.
    """

    p: int
    L: int
    log_coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.log_coeffs.setflags(write=False)

    @property
    def ells(self) -> np.ndarray:
        return np.arange(1, self.L + 1, dtype=np.float64)


def make_disc_space(p: int, L: int) -> DiscSpace:
    """Build the truncated space; amplitudes via log-gamma arithmetic."""
    if p < 2:
        raise ValueError(f"tensor power p must be >= 2 (basis needs (p-2)!), got {p}")
    if L < 1:
        raise ValueError(f"truncation length L must be >= 1, got {L}")
    ells = np.arange(1, L + 1, dtype=np.float64)
    log_coeffs = (p - 1) * np.log(ells) - LOG_2PI - gammaln(p - 1)
    if not np.all(np.isfinite(log_coeffs)):
        raise ValueError("non-finite basis amplitude; p or L out of usable range")
    return DiscSpace(p=int(p), L=int(L), log_coeffs=log_coeffs)


def adaptive_truncation(p: int, r: float, rel_tol: float = KERNEL_TAIL_RTOL) -> int:
    """Smallest L whose geometric tail bound at radius r is below rel_tol.

    The terms are t_ell = c_ell^2 r^(2 ell).  Past the mode
    ell* = (p-1)/(2 |log r|) the term ratio
    q_ell = ((ell+1)/ell)^(p-1) r^2 is < 1 and decreasing, so the tail
    after L is bounded by t_{L+1} / (1 - q_L).  Returns the smallest L
    with tail bound <= rel_tol * (head sum).
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"radius must lie in (0, 1), got {r}")
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    log_r = math.log(r)
    ell_star = (p - 1) / (2.0 * abs(log_r))
    hi = max(64, int(2.5 * ell_star) + 64)
    log_rel = math.log(rel_tol)
    while True:
        ells = np.arange(1, hi + 2, dtype=np.float64)
        log_terms = (p - 1) * np.log(ells) + 2.0 * ells * log_r  # common constants cancel
        head = np.logaddexp.accumulate(log_terms)
        # candidate L = 1..hi; tail bound uses term at L+1 and ratio at L
        log_q = (p - 1) * np.log1p(1.0 / ells[:-1]) + 2.0 * log_r
        ok = log_q < -1e-12
        with np.errstate(invalid="ignore", divide="ignore"):
            log_tail = np.where(ok, log_terms[1:] - np.log1p(-np.exp(np.minimum(log_q, -1e-300))), np.inf)
        good = log_tail <= log_rel + head[:-1]
        idx = np.flatnonzero(good)
        if idx.size:
            return int(idx[0]) + 1
        hi *= 2
        if hi > 10_000_000:
            raise RuntimeError("truncation search failed to converge")


def _require_adequate(space: DiscSpace, r: float, rel_tol: float = KERNEL_TAIL_RTOL) -> None:
    required = adaptive_truncation(space.p, r, rel_tol)
    if space.L < required:
        raise TruncationError(
            f"truncation L={space.L} inadequate at radius {r:.6g}; need L >= {required}",
            required_length=required,
        )


def _checked_radii(space: DiscSpace, r) -> np.ndarray:
    """r (a scalar or an array) as a float array, after the domain check and a truncation check.

    The truncation is checked once, at the largest radius: that covers
    every entry, because the required length is nondecreasing in r.
    """
    r = np.asarray(r, dtype=np.float64)
    inside = (r > 0.0) & (r < 1.0)
    if not inside.all():
        raise DomainError(f"radius must lie in (0, 1), got {r[~inside].flat[0]}")
    _require_adequate(space, float(r.max()))
    return r


def _scalar_or_array(x):
    """A float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _log_diag(space: DiscSpace, log_r):
    """log of sum_ell c_ell^2 r^(2 ell), the unweighted diagonal series, from log r (a scalar or an array)."""
    return logsumexp(space.log_coeffs + 2.0 * np.multiply.outer(log_r, space.ells), axis=-1)


def log_kernel_function(space: DiscSpace, r):
    """log B_p(z) for |z| = r, in the natural log; elementwise for an array of radii."""
    log_r = np.log(_checked_radii(space, r))
    return _scalar_or_array(space.p * np.log(-2.0 * log_r) + _log_diag(space, log_r))


def kernel_function(space: DiscSpace, r):
    """Diagonal Bergman kernel function B_p(z) at |z| = r; strictly positive; elementwise for an array."""
    return _scalar_or_array(np.exp(log_kernel_function(space, r)))


def _off_diag(space: DiscSpace, z, zp) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(|z|, |z'|, m, s) with sum_ell c_ell^2 (z zbar')^ell = e^m s, elementwise over the broadcast points.

    One domain and truncation check covers both point sets.
    """
    z, zp = np.asarray(z, dtype=np.complex128), np.asarray(zp, dtype=np.complex128)
    rz, rp = np.abs(z), np.abs(zp)
    _checked_radii(space, np.append(rz, rp))
    # z zbar' in real arithmetic, unfused: swapping the points then
    # conjugates it exactly, which numpy's complex product does not promise
    re = z.real * zp.real + z.imag * zp.imag
    im = z.imag * zp.real - z.real * zp.imag
    log_terms = space.log_coeffs + np.multiply.outer(np.log(np.hypot(re, im)), space.ells)
    m = np.max(log_terms, axis=-1)
    phases = np.exp(1j * np.multiply.outer(np.arctan2(im, re), space.ells))
    return rz, rp, m, np.sum(np.exp(log_terms - m[..., None]) * phases, axis=-1)


def normalized_kernel(space: DiscSpace, z, zp):
    """N_p(z, z') = |B_p(z,z')| / sqrt(B_p(z) B_p(z')) in [0, 1]; elementwise over broadcast arrays of points.

    Computed entirely in the log domain; the h_p weight factors cancel.
    Underflow of the off-diagonal sum returns exactly 0.0.
    """
    rz, rp, m, s = _off_diag(space, z, zp)
    with np.errstate(divide="ignore"):
        log_n = m + np.log(np.abs(s)) - 0.5 * (_log_diag(space, np.log(rz)) + _log_diag(space, np.log(rp)))
    return _scalar_or_array(np.exp(log_n))


# log(-log r) of the smallest positive normal double r
_T_NORMAL_MIN = math.log(-math.log(sys.float_info.min))


def sup_kernel(space: DiscSpace) -> tuple[float, float]:
    """Maximize B_p over the punctured disc.

    The maximizer has exponentially small |z| (its -log r grows like p/2),
    so the search runs in the doubly logarithmic coordinate
    t = log(-log r): a coarse grid bracket (one array call) followed by
    golden-section refinement.  Returns (r_star, max value).
    """
    if space.p < 3:
        raise ValueError("sup search requires p >= 3")
    # r from 0.95 down to exp(-e * p): covers plateau through the peak.
    # From p = 275 on, exp(-e * p) underflows to 0.0; the range then stops
    # at the smallest normal double instead (the peak, at -log r ~ p/2,
    # stays well inside it up to p ~ 1400).
    t_lo = math.log(-math.log(0.95))
    t_hi = math.log(space.p) + 1.0
    if math.exp(-math.exp(t_hi)) == 0.0:
        t_hi = _T_NORMAL_MIN

    def f(t):
        return log_kernel_function(space, np.exp(-np.exp(t)))

    ts = np.linspace(t_lo, t_hi, SUP_GRID_POINTS)
    k = int(np.argmax(f(ts)))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, SUP_GRID_POINTS - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-11:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    t_star = 0.5 * (a + b)
    r_star = math.exp(-math.exp(t_star))
    return r_star, kernel_function(space, r_star)


# ---------------------------------------------------------------------------
# hyperbolic geometry of the punctured disc


def _to_half_plane(z) -> tuple[np.ndarray, np.ndarray]:
    """Covering coordinate tau = theta/2pi + i(-log r)/2pi of the cusp, as (Re tau, Im tau), elementwise."""
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    inside = (r > 0.0) & (r < 1.0)
    if not inside.all():
        raise DomainError(f"point with |z| = {r[~inside].flat[0]:.6g} outside the punctured disc")
    return np.arctan2(z.imag, z.real) / (2.0 * math.pi), -np.log(r) / (2.0 * math.pi)


def poincare_distance(z, zp):
    """Geodesic distance of the cusp metric on the punctured disc; elementwise over broadcast arrays of points.

    Via the covering map to the upper half-plane the metric pulls back to
    half the standard hyperbolic metric, so the distance is
    ``(1/sqrt(2)) * min_n arccosh(1 + |tau - tau' - n|^2 / (2 Im tau Im tau'))``
    with the minimum over integer deck shifts n.
    """
    x, y = _to_half_plane(z)
    xp, yp = _to_half_plane(zp)
    dx = x - xp
    dx -= np.round(dx)  # nearest deck representative
    best = np.inf
    for n in (-1.0, 0.0, 1.0):
        s = ((dx + n) ** 2 + (y - yp) ** 2) / (2.0 * y * yp)
        best = np.minimum(best, np.log1p(s + np.sqrt(s * (2.0 + s))))  # arccosh(1 + s), stable for small s
    return _scalar_or_array(best / math.sqrt(2.0))


def c1_area(region: Annulus) -> float:
    """Mass of c_1(L, h) = omega / 2pi on the annulus: (1/2)(1/|log b| - 1/|log a|)."""
    if region.is_empty:
        return 0.0
    return 0.5 * (1.0 / abs(math.log(region.b)) - 1.0 / abs(math.log(region.a)))


def hyperbolic_area(region: Annulus) -> float:
    """Mass of the cusp Kaehler form omega on the annulus."""
    return 2.0 * math.pi * c1_area(region)


def zero_counting_function(space: DiscSpace, r):
    """Expected number of zeros of the Gaussian section in {0 < |z| <= r}; elementwise for an array of radii.

    Radial reduction of the expected-measure identity: with
    K0(r) = sum_ell c_ell^2 r^(2 ell) the count is
    n(r) = (1/2) d log K0 / d log r, i.e. the amplitude-weighted mean index

        n(r) = sum_ell ell w_ell / sum_ell w_ell,   w_ell = c_ell^2 r^(2 ell).

    The h_p weight contributes -p c_1 which cancels the p c_1 term of the
    expected measure, so only the unweighted covariance enters.
    """
    log_w = space.log_coeffs + 2.0 * np.multiply.outer(np.log(_checked_radii(space, r)), space.ells)
    w = np.exp(log_w - np.max(log_w, axis=-1, keepdims=True))
    return _scalar_or_array(np.sum(space.ells * w, axis=-1) / np.sum(w, axis=-1))


def expected_zero_measure(space: DiscSpace, region: Annulus) -> float:
    """Expected zero count of the truncated Gaussian section in the annulus."""
    if region.is_empty:
        return 0.0
    n_a, n_b = zero_counting_function(space, np.array([region.a, region.b]))
    return float(n_b - n_a)


_leggauss = functools.cache(leggauss)  # one rule per node count, never handed out


def _legendre_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes on (a, b) and their weights: fresh arrays, mapped from the cached rule."""
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def log_bergman_l1(space: DiscSpace, region: Annulus) -> float:
    """Integral of |log B_p| against the cusp form omega over the annulus.

    Radially, omega reduces to pi * dr / (r log^2 r); Gauss-Legendre in
    t = log(-log r) turns that into pi * e^(-t) dt.
    """
    if region.is_empty:
        return 0.0
    t_lo = math.log(-math.log(region.b))
    t_hi = math.log(-math.log(region.a))
    x, w = _leggauss(L1_QUAD_NODES)  # read only
    t = 0.5 * (t_hi - t_lo) * x + 0.5 * (t_hi + t_lo)
    vals = np.abs(log_kernel_function(space, np.exp(-np.exp(t)))) * np.exp(-t)
    # the weights are scaled after the sum: scaling them first, as _legendre_rule does, moves the value
    # by 1e-16 relative and the l1log deviation column, a difference of close values, in its 6th digit
    return math.pi * 0.5 * (t_hi - t_lo) * float(np.dot(w, vals))
