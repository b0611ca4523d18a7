"""Smooth statistics of the zero point process: test functions, the
bipotential profile, and number-variance formulas.

The linear statistic of a test function phi is Y(phi) = sum phi(zero).
Its variance has the bipotential representation

    Var[Y(phi)] = int int L(phi)(z) L(phi)(w) Gt(N_p(z, w)) c1(z) c1(w),

where N_p is the normalized kernel, L(phi) is the density of
i d dbar phi against c1, and Gt(t) = (1/4 pi^2) sum_j t^(2j) / j^2 is a
rescaled dilogarithm.  For radial phi, rotation invariance of N_p
collapses the double surface integral to three dimensions (r, r',
relative angle); only radial test functions are supported here.  In
y = -2 log r, N_p^2 is a closed form in (y, y', angle) by the Lipschitz
formula (a deck sum over the cusp, 1 to rounding in the bulk), so the
angular mean of the t^2 part of Gt is a Beta integral, exact, and the rest
a Gauss rule on the window of angles where N_p is not small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sections
from .disc import LOG_2PI, Annulus, DiscSpace, _legendre_rule, _log_deck, _log_n2, _scalar_or_array, zero_counting_function

__all__ = [
    "APERY",
    "TestFunction",
    "expected_linear_statistic",
    "laplacian_ratio",
    "sodin_tsirelson_proxy",
    "variance_bipotential",
    "variance_leading_term",
]

APERY = 1.202056903159594  # zeta(3)
# The 3-d (r, r', relative-angle) variance integral starts from this radial
# node count and doubles it until successive values agree to VARIANCE_RTOL,
# at most VARIANCE_MAX_REFINEMENTS times.
VARIANCE_RADIAL_NODES = 64
VARIANCE_RTOL = 5e-4
VARIANCE_MAX_REFINEMENTS = 3
# Gt(t) = t^2 / 4 pi^2 + R(t), 0 <= R(t) <= t^4 (pi^2/6 - 1) / 4 pi^2: R is summed only
# where N_p^2 > VARIANCE_TAU, which drops at most 0.65 VARIANCE_TAU of the N_p^2 term,
# by WINDOW_NODES Gauss nodes per radius pair.
VARIANCE_TAU = 1e-4
WINDOW_NODES = 16
# Gauss-Legendre nodes of the leading-term integral and of the expected
# linear statistic; radial nodes of the correlation proxy.
LEADING_TERM_NODES = 512
LINSTAT_QUAD_NODES = 512
PROXY_RADIAL_NODES = 48


@dataclass(frozen=True)
class TestFunction:
    """Radial C^infinity bump supported on the annulus a < |z| < b.

    profile(r) = exp(1 - 1/(1 - u^2)) with
    u = (2r - (a+b)) / (b-a); the function and all radial derivatives
    vanish at the support endpoints (class C^3 and beyond; the curvature
    of the disc model never vanishes, so no extra flatness condition is
    required of test functions here).
    """

    a: float
    b: float

    __test__ = False  # not a pytest class despite the name

    def __post_init__(self):
        if not 0.0 < self.a < self.b < 1.0:
            raise ValueError(f"support must satisfy 0 < a < b < 1, got ({self.a}, {self.b})")

    @property
    def support(self) -> Annulus:
        return Annulus(self.a, self.b)

    def _bump(self, r):
        """u, the inside mask |u| < 1, w = 1 - u^2 (1 outside) and exp(1 - 1/w) (0 outside) at the radii r."""
        u = (2.0 * np.asarray(r, dtype=np.float64) - (self.a + self.b)) / (self.b - self.a)
        inside = np.abs(u) < 1.0
        w = np.where(inside, 1.0 - u * u, 1.0)
        return u, inside, w, np.where(inside, np.exp(1.0 - 1.0 / w), 0.0)

    def value(self, r):
        return self._bump(r)[3]

    def d1(self, r):
        """First radial derivative, analytic."""
        u, inside, w, val = self._bump(r)
        s = 2.0 / (self.b - self.a)
        return s * np.where(inside, val * (-2.0 * u / w**2), 0.0)

    def d2(self, r):
        """Second radial derivative, analytic."""
        u, inside, w, val = self._bump(r)
        s = 2.0 / (self.b - self.a)
        expr = 4.0 * u * u / w**4 - 2.0 / w**2 - 8.0 * u * u / w**3
        return s * s * np.where(inside, val * expr, 0.0)


def laplacian_ratio(phi: TestFunction, z) -> float | np.ndarray:
    """Density L(phi) of i d dbar phi against c1 = omega / 2 pi.

    For the cusp form, i d dbar phi = (Delta_euc phi / 2) dx dy and
    c1 = dx dy / (pi r^2 log^2(r^2)), which gives the closed form

        L(phi)(z) = (pi / 2) (phi'' + phi'/r) r^2 log^2(r^2).
    """
    r = np.abs(np.asarray(z)).astype(np.float64)
    out = np.zeros(r.shape)
    mask = (r > 0.0) & (r < 1.0)
    rm = r[mask]
    lap = phi.d2(rm) + phi.d1(rm) / rm
    out[mask] = 0.5 * math.pi * lap * rm**2 * np.log(rm**2) ** 2
    return _scalar_or_array(out)


def _gtilde_fast(t2: np.ndarray) -> np.ndarray:
    # the bipotential profile Gt(t) = Li2(t^2) / (4 pi^2) from t2 = t^2, through scipy's spence; agrees to
    # 1e-12 with the series and integral forms of the scalar oracle in tests/oracles.py.  scipy.special is imported
    # here and in _log_beta_mean, not at import time, of which it would be most
    from scipy.special import spence

    return spence(1.0 - t2) / (4.0 * math.pi**2)


def _c1_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre radii on (a, b) and their weights against c1 (radial density 1 / (2 r log^2 r))."""
    r, w = _legendre_rule(a, b, n)
    return r, w / (2.0 * r * np.log(r) ** 2)


def _log_beta_mean(q: float, y, yp):
    """log (1 / 2 pi) int_R (y y' / (a^2 + theta^2))^q dtheta, a Beta integral, a = (y + y') / 2 and log(y y' / a^2)."""
    from scipy.special import betaln  # not three math.lgamma: that moves the last digits

    a, lr = 0.5 * (y + yp), np.log1p(-np.square((y - yp) / (y + yp)))  # exact to rounding for close y, y'
    return q * lr + np.log(a) + betaln(q - 0.5, 0.5) - LOG_2PI, a, lr


def _bipotential_means(p: int, y: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Mean over theta of Gt(N_p) for each radius pair (y[i], y[j]), y = -2 log r; the near pairs; the largest deck K.

    With a = (y + y') / 2 and D the deck sum of `disc._log_deck`, the Lipschitz formula gives N_p^2 = (y y' / (a^2 +
    theta^2))^p |D(p, a - i theta)|^2 / (D(p, y) D(p, y')), and Parseval's mean of N_p^2 is the Beta integral at p
    times D(2p - 1, 2a) / (D(p, y) D(p, y')), exact.  R = Gt(t) - t^2 / 4 pi^2 is added for the near pairs,
    N_p(theta = 0)^2 > VARIANCE_TAU, on the hot window theta^2 <= y y' VARIANCE_TAU^(-1/p) - a^2 (at most pi) by a
    Gauss rule in theta = theta_max s^2, which resolves the diagonal's theta^2 log theta.  Blocked by BLOCK_ENTRIES.
    """
    diag, k_max = _log_deck(p, y)
    s, w = _legendre_rule(0.0, 1.0, WINDOW_NODES)
    w *= 2.0 * s / math.pi  # even in theta: the mean is int_0^pi d theta / pi, d theta = 2 theta_max s ds
    out, near_pairs, step, log_tau = np.empty(i.size), 0, sections.BLOCK_ENTRIES // WINDOW_NODES, math.log(VARIANCE_TAU)
    for lo in range(0, i.size, step):
        bi, bj = i[lo : lo + step], j[lo : lo + step]
        parseval, a, lr = _log_beta_mean(p, y[bi], y[bj])
        dd = diag[bi] + diag[bj]
        (deck, k0), (peak, k1) = _log_deck(2 * p - 1, 2.0 * a), _log_n2(p, a, lr, dd, 0.0)
        out[lo : lo + step] = np.exp(parseval + deck - dd) / (4.0 * math.pi**2)
        near = np.flatnonzero(peak > log_tau)
        a, lr, dd = a[near, None], lr[near, None], dd[near, None]
        theta_max = np.minimum(a * np.sqrt(np.maximum(np.expm1(lr - log_tau / p), 0.0)), math.pi)
        t2, k2 = _log_n2(p, a, lr, dd, theta_max * s * s)
        t2 = np.minimum(np.exp(t2), 1.0)
        out[lo + near] += theta_max[:, 0] * ((_gtilde_fast(t2) - t2 / (4.0 * math.pi**2)) @ w)
        near_pairs, k_max = near_pairs + near.size, max(k_max, k0, k1, k2)
    return out, near_pairs, k_max


def variance_bipotential(space: DiscSpace, phi: TestFunction, diagnostics: dict | None = None) -> float:
    """Var[Y(phi)] from the bipotential double integral at p = space.p; nonnegative.

    Adaptive: the radial node count doubles from VARIANCE_RADIAL_NODES until successive values agree to VARIANCE_RTOL
    (relative); RuntimeError if the refinement cap is hit.  Sets diagnostics["bipotential_radial_nodes"],
    ["bipotential_near_pairs"] (the pairs whose hot window was integrated) and ["bipotential_deck_terms"] (the
    largest deck K), if given, from the final pass.
    """
    prev = None
    for refinement in range(VARIANCE_MAX_REFINEMENTS + 1):
        n_r = VARIANCE_RADIAL_NODES << refinement
        r, meas = _c1_rule(phi.a, phi.b, n_r)
        vec = laplacian_ratio(phi, r) * meas
        i, j = np.triu_indices(n_r)
        means, near, decks = _bipotential_means(space.p, -2.0 * np.log(r), i, j)
        cur = float((np.where(i == j, 1.0, 2.0) * vec[i] * vec[j]) @ means)
        if prev is not None and abs(cur - prev) <= VARIANCE_RTOL * max(abs(cur), 1e-300):
            if diagnostics is not None:
                diagnostics.update(
                    bipotential_radial_nodes=n_r, bipotential_near_pairs=near, bipotential_deck_terms=decks
                )
            return max(cur, 0.0)
        prev = cur
    raise RuntimeError("variance quadrature did not converge under refinement")


def variance_leading_term(phi: TestFunction, p: int) -> float:
    """zeta(3)/(4 pi^2 p) * int |L(phi)|^2 c1 by radial quadrature."""
    r, meas = _c1_rule(phi.a, phi.b, LEADING_TERM_NODES)
    lap = laplacian_ratio(phi, r)
    return APERY / (4.0 * math.pi**2 * p) * float(np.dot(lap * lap, meas))


def expected_linear_statistic(p: int, phi: TestFunction) -> float:
    """E[Y(phi)] = int phi d n = -int phi'(r) n(r) dr (n = radial zero counting)."""
    r, w = _legendre_rule(phi.a, phi.b, LINSTAT_QUAD_NODES)
    return -float(np.dot(w, phi.d1(r) * zero_counting_function(p, r)))


def sodin_tsirelson_proxy(p: int, region: Annulus) -> float:
    """sup_z int N_p(z, w) c1(w) over the region; a normality diagnostic.

    Decays with p (the correlation length shrinks like p^(-1/2)), which is
    the summability hypothesis behind the central limit theorem.  The angular
    mean of N_p is the Beta integral at p / 2 (`_log_beta_mean`), the k = 0
    deck term over the whole line: exact but for the deck terms k != 0, which
    move it by at most 2 (a / pi) sqrt(p) (1 + pi^2 / a^2)^(1 - p/2) relative,
    a = -2 log region.a: 1.3e-24 at p = 100 on (0.35, 0.65), 5.2e-7 at p = 30.
    """
    r, meas = _c1_rule(region.a, region.b, PROXY_RADIAL_NODES)
    y = -2.0 * np.log(r)
    return float(np.max(np.exp(_log_beta_mean(0.5 * p, y[:, None], y)[0]) @ meas))
