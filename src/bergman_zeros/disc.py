"""Weighted Bergman space of the Poincare punctured unit disc.

The space at tensor power p has the orthonormal basis
``(ell^(p-1) / (2 pi (p-2)!))^(1/2) z^ell`` for ell = 1, 2, ...  With
y = -2 log|z| and x = e^(-y), the diagonal kernel function is

    B_p(z) = y^p / (2 pi (p-2)!) * sum_ell ell^(p-1) x^ell = (p-1) / (2 pi) * x E(x) * (y / (1 - x))^p,

E = A_(p-1) / (p-1)! the Eulerian polynomial (Petersen, *Eulerian Numbers*,
2015): p - 1 positive terms, no truncation.  The zero counting function is
its logarithmic derivative, from the same coefficients, and the normalized
two-point kernel the Poincare series over the cusp's deck group (`_log_n2`),
no truncation either.  Only the random sections of `sections` use the
basis truncated at L (`DiscSpace`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

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

# Bound on the omitted deck terms of `_log_deck`, relative to its k = 0 term on the real axis.
DECK_RTOL = 1e-16
# Coarse grid of sup_kernel in t = log y, and Gauss-Legendre nodes of
# log_bergman_l1.
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
    log_coeffs = (p - 1) * np.log(ells) - LOG_2PI - math.lgamma(p - 1)
    if not np.all(np.isfinite(log_coeffs)):
        raise ValueError("non-finite basis amplitude; p or L out of usable range")
    return DiscSpace(p=int(p), L=int(L), log_coeffs=log_coeffs)


def adaptive_truncation(p: int, r: float, rel_tol: float) -> int:
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


def _checked_radii(r) -> np.ndarray:
    """r (a scalar or an array) as a float array, after the domain check of every entry."""
    r = np.asarray(r, dtype=np.float64)
    inside = (r > 0.0) & (r < 1.0)
    if not inside.all():
        raise DomainError(f"radius must lie in (0, 1), got {r[~inside].flat[0]}")
    return r


def _scalar_or_array(x):
    """A float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


@functools.cache
def _log_eulerian(p: int) -> np.ndarray:
    """log of the coefficients A(p-1, k) / (p-1)! of E, k = 0 .. p-2; read only.

    By A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1), over n at each step, on mantissas and exponents (the row
    spans far beyond the double range): every term is positive, so each step costs a few roundings, relative.
    """
    if p < 2:
        raise ValueError(f"tensor power p must be >= 2 (basis needs (p-2)!), got {p}")
    m, e = np.ones(1), np.zeros(1, dtype=int)
    for n in range(2, p):
        w, ea, eb = np.arange(1, n + 1) / n, np.append(e, e[-1]), np.append(e[0], e)
        e = np.maximum(ea, eb)  # neighbours can differ by 2^n: the smaller may underflow, never the larger
        m, de = np.frexp(np.ldexp(w * np.append(m, 0.0), ea - e) + np.ldexp(w[::-1] * np.append(0.0, m), eb - e))
        e += de
    return np.log(m) + e * math.log(2.0)  # never handed out


def _eulerian_weights(p: int, y) -> tuple[np.ndarray, np.ndarray]:
    """The terms c_k x^k of E(x), x = e^(-y), over the largest of them (last axis), and the log of that largest."""
    log_w = _log_eulerian(p) - np.multiply.outer(y, np.arange(p - 1))
    shift = np.max(log_w, axis=-1)
    return np.exp(log_w - shift[..., None]), shift


def _log_diag(p: int, y):
    """log B_p at y = -2 log r (a scalar or an array), by the closed form."""
    w, shift = _eulerian_weights(p, y)
    log_xe = np.log(np.sum(w, axis=-1)) + shift - y
    return math.log(p - 1) - LOG_2PI + log_xe - p * np.log(-np.expm1(-y) / y)


def _log_deck(q: int, s) -> tuple[np.ndarray, int]:
    """log |D_q(s)| over an array s (q >= 2, Re s > 0, |Im s| <= pi), and K, the most deck terms an entry may take.

    D_q(s) = sum_k (1 + 2 pi i k / s)^(-q) is the sum over the cusp's deck group: by the Lipschitz formula,
    sum_ell ell^(q-1) e^(-s ell) = Gamma(q) s^(-q) D_q(s).  K is the smallest with (2 + |w|) (A / |w|)^q <= DECK_RTOL,
    w = A + i (2 pi (K+1) - B), A and B the largest Re s and |Im s| (the bound rises with both); each entry stops at
    the least K_s <= K with |w_s| >= Re s ((2 + |w|) / DECK_RTOL)^(1/q), w_s its own w at K_s.  That keeps its omitted
    terms sum_{|k| > K_s} |s + 2 pi i k|^(-q) below DECK_RTOL (Re s)^(-q), its k = 0 term at Im s = 0.  In the bulk
    K = 0.  Where K would reach q (small q), D_q comes from the closed form x E(x) / (1 - x)^q of `_log_diag`.
    """
    shape, s = np.shape(s), np.ravel(s)  # 1-d, so that a scalar s too takes z[sel] below
    a, im, k = s.real, abs(s.imag), 0
    while a.size and k < q:
        w = math.hypot(a.max(), 2.0 * math.pi * (k + 1) - im.max())
        if (2.0 + w) * (a.max() / w) ** q <= DECK_RTOL:
            break
        k += 1
    if k == q:
        f = sum(np.exp(c - s * ell) for ell, c in enumerate(_log_eulerian(q)))  # E(x), x = e^(-s): no underflow
        return (np.log(np.abs(f * (s / -np.expm1(-s)) ** q)) - a).reshape(shape), k
    if not k:
        return np.zeros(shape), k  # D_q = 1, its k = 0 term, with no complex temporaries
    total = np.ones(s.shape, dtype=np.complex128)
    w_s, z = a * ((2.0 + w) / DECK_RTOL) ** (1.0 / q), 2j * math.pi / s
    need = np.ceil((np.sqrt(np.maximum(w_s * w_s - a * a, 0.0)) + im) / (2.0 * math.pi)) - 1.0
    for n in range(1, k + 1):
        sel = need >= n
        total[sel] += (1.0 + n * z[sel]) ** -q + (1.0 - n * z[sel]) ** -q
    return np.log(np.abs(total)).reshape(shape), k


def log_kernel_function(p: int, r):
    """log B_p(z) for |z| = r, in the natural log; elementwise for an array of radii."""
    return _scalar_or_array(_log_diag(p, -2.0 * np.log(_checked_radii(r))))


def kernel_function(p: int, r):
    """Diagonal Bergman kernel function B_p(z) at |z| = r; strictly positive; elementwise for an array."""
    return _scalar_or_array(np.exp(log_kernel_function(p, r)))


def _log_n2(p: int, a, lr, dd, theta):
    """log N_p^2 at relative angle theta, from a, lr = log(y y' / a^2) and dd = log D(p, y) D(p, y'); the deck K."""
    deck, k = _log_deck(p, a - 1j * theta)
    return p * (lr - np.log1p(np.square(theta / a))) + 2.0 * deck - dd, k


def normalized_kernel(p: int, z, zp):
    """N_p(z, z') = |B_p(z,z')| / sqrt(B_p(z) B_p(z')) in [0, 1]; elementwise over broadcast arrays of points.

    The Poincare series: with y = -2 log|z|, a = (y + y') / 2, the relative angle theta in [-pi, pi] and D the deck
    sum of `_log_deck`, the Lipschitz formula gives N_p^2 = (y y' / (a^2 + theta^2))^p |D(p, a - i theta)|^2 /
    (D(p, y) D(p, y')), no truncation.  The deck terms left out are below DECK_RTOL (Re s)^(-p): N_p is exact to about
    DECK_RTOL absolute, so at |theta| near pi not relatively.  In the bulk (K = 0) N_p = cosh(d / sqrt 2)^(-p), d the
    `poincare_distance`.  Underflow returns exactly 0.0.  Valid for y, y' up to about p, the sup point: past it D is a
    small value left after unit-size terms cancel (log D(100, y) is 2.3e-12 off at y = 150 and 1e-3 at y = 200, and a
    near pair at p = 100, y = 300 reads N_p = 11.3), except below p ~ 30, where the closed form of `_log_deck` serves.
    """
    y, yp, theta = _cusp_coordinates(z, zp)
    (deck, _), (deck_p, _) = _log_deck(p, y), _log_deck(p, yp)
    lr = np.log1p(-np.square((y - yp) / (y + yp)))  # log(y y' / a^2), exact to rounding for close y, y'
    return _scalar_or_array(np.exp(0.5 * _log_n2(p, 0.5 * (y + yp), lr, deck + deck_p, theta)[0]))


def sup_kernel(p: int) -> tuple[float, float]:
    """Maximize B_p over the punctured disc; returns (-log r*, max value).

    The maximizer's -log r* tends to p/2, so r* underflows to 0.0 from
    p ~ 1490 on: the search runs in t = log y and never forms r.  A coarse
    grid from r = 0.95 to r = e^(-e p) brackets the peak (one array call),
    then bounded Brent refines it.
    """
    from scipy.optimize import minimize_scalar

    if p < 3:
        raise ValueError("sup search requires p >= 3")
    ts = np.linspace(math.log(-2.0 * math.log(0.95)), math.log(2.0 * p) + 1.0, SUP_GRID_POINTS)
    k = int(np.argmax(_log_diag(p, np.exp(ts))))
    best = minimize_scalar(
        lambda t: -_log_diag(p, math.exp(t)),
        bounds=(ts[max(k - 1, 0)], ts[min(k + 1, SUP_GRID_POINTS - 1)]),
        method="bounded",
        options={"xatol": 1e-11},
    )
    return 0.5 * math.exp(best.x), math.exp(-best.fun)


# ---------------------------------------------------------------------------
# hyperbolic geometry of the punctured disc


def _cusp_coordinates(z, zp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, y', theta), y = -2 log|z| and theta in [-pi, pi] the relative angle (nearest deck shift), elementwise."""
    theta = np.angle(z) - np.angle(zp)
    y, yp = (-2.0 * np.log(_checked_radii(np.abs(w))) for w in (z, zp))
    return y, yp, theta - 2.0 * math.pi * np.round(theta / (2.0 * math.pi))


def poincare_distance(z, zp):
    """Geodesic distance of the cusp metric on the punctured disc; elementwise over broadcast arrays of points.

    Via the covering map tau = (theta + i y / 2) / 2 pi to the upper
    half-plane the metric pulls back to half the standard hyperbolic
    metric, so the distance is
    ``(1/sqrt(2)) * arccosh(1 + |tau - tau'|^2 / (2 Im tau Im tau'))``
    at the nearest deck representative, |Re tau - Re tau'| <= 1/2.
    """
    y, yp, theta = _cusp_coordinates(z, zp)
    s = (4.0 * theta * theta + (y - yp) ** 2) / (2.0 * y * yp)
    return _scalar_or_array(np.log1p(s + np.sqrt(s * (2.0 + s))) / math.sqrt(2.0))  # arccosh(1 + s), stable at s ~ 0


def c1_area(region: Annulus) -> float:
    """Mass of c_1(L, h) = omega / 2pi on the annulus: (1/2)(1/|log b| - 1/|log a|)."""
    return 0.5 * (1.0 / abs(math.log(region.b)) - 1.0 / abs(math.log(region.a)))


def hyperbolic_area(region: Annulus) -> float:
    """Mass of the cusp Kaehler form omega on the annulus."""
    return 2.0 * math.pi * c1_area(region)


def zero_counting_function(p: int, r):
    """Expected number of zeros of the Gaussian section in {0 < |z| <= r}; elementwise for an array of radii.

    Radial reduction of the expected-measure identity: n(r) = (1/2) d log K0 / d log r, K0 the unweighted
    diagonal sum_ell ell^(p-1) x^ell = x E(x) / (1 - x)^p, x = r^2 (the h_p weight contributes -p c_1, which
    cancels the p c_1 term of the expected measure).  With c_k the coefficients of E (`_log_eulerian`),

        n(r) = 1 + sum_k k c_k x^k / sum_k c_k x^k + p x / (1 - x),

    the middle term a mean index under p - 1 positive, max-shifted weights: no truncation.
    """
    y = -2.0 * np.log(_checked_radii(r))
    w, _ = _eulerian_weights(p, y)
    k = np.arange(p - 1)
    return _scalar_or_array(1.0 + (w @ k) / np.sum(w, axis=-1) + p / np.expm1(y))  # x / (1 - x) = 1 / (e^y - 1)


def expected_zero_measure(p: int, region: Annulus) -> float:
    """Expected zero count of the Gaussian section in the annulus."""
    n_a, n_b = zero_counting_function(p, np.array([region.a, region.b]))
    return float(n_b - n_a)


_leggauss = functools.cache(leggauss)  # one rule per node count, never handed out


def _legendre_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes on (a, b) and their weights: fresh arrays, mapped from the cached rule."""
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def log_bergman_l1(p: int, region: Annulus) -> float:
    """Integral of |log B_p| against the cusp form omega over the annulus.

    Radially, omega reduces to pi * dr / (r log^2 r); Gauss-Legendre in
    t = log(-log r) turns that into pi * e^(-t) dt.
    """
    t_lo = math.log(-math.log(region.b))
    t_hi = math.log(-math.log(region.a))
    x, w = _leggauss(L1_QUAD_NODES)  # read only
    t = 0.5 * (t_hi - t_lo) * x + 0.5 * (t_hi + t_lo)
    vals = np.abs(_log_diag(p, 2.0 * np.exp(t))) * np.exp(-t)
    # the weights are scaled after the sum: scaling them first, as _legendre_rule does, moves the value
    # by 1e-16 relative and the l1log deviation column, a difference of close values, in its 6th digit
    return math.pi * 0.5 * (t_hi - t_lo) * float(np.dot(w, vals))
