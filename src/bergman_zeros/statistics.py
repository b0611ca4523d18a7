"""Smooth statistics of the zero point process: test functions, the
bipotential profile, and number-variance formulas.

The linear statistic of a test function phi is Y(phi) = sum phi(zero).
Its variance has the bipotential representation

    Var[Y(phi)] = int int L(phi)(z) L(phi)(w) Gt(N_p(z, w)) c1(z) c1(w),

where N_p is the normalized kernel, L(phi) is the density of
i d dbar phi against c1, and Gt(t) = (1/4 pi^2) sum_j t^(2j) / j^2 is a
rescaled dilogarithm.  For radial phi, rotation invariance of N_p
collapses the double surface integral to three dimensions (r, r',
relative angle); only radial test functions are supported here.  The
t^2 part of Gt is one GEMM of unit coefficient rows (Parseval), the rest
one folded FFT per radius pair where N_p at angle 0, a GEMM, is not small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import spence

from . import sections
from .disc import Annulus, DiscSpace, _legendre_rule, _scalar_or_array, zero_counting_function

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
# The 3-d (r, r', relative-angle) variance integral starts from these node
# counts and doubles both until successive values agree to VARIANCE_RTOL,
# at most VARIANCE_MAX_REFINEMENTS times.
VARIANCE_RADIAL_NODES = 64
VARIANCE_ANGULAR_NODES = 256
VARIANCE_RTOL = 5e-4
VARIANCE_MAX_REFINEMENTS = 3
# Gt(t) = t^2 / 4 pi^2 + R(t), 0 <= R(t) <= t^4 (pi^2/6 - 1) / 4 pi^2: R is summed only
# where N_p^2 > VARIANCE_TAU, which drops at most 0.65 VARIANCE_TAU of the N_p^2 term.
# Beside the n_r x L unit rows, the arrays of the pair loop hold at most sections.BLOCK_ENTRIES entries.
VARIANCE_TAU = 1e-4
# Gauss-Legendre nodes of the leading-term integral and of the expected
# linear statistic; radial and angular nodes of the correlation proxy.
LEADING_TERM_NODES = 512
LINSTAT_QUAD_NODES = 512
PROXY_RADIAL_NODES = 48
PROXY_ANGULAR_NODES = 192


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
    # 1e-12 with the series and integral forms of the scalar oracle in tests/oracles.py
    return spence(1.0 - t2) / (4.0 * math.pi**2)


def _c1_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre radii on (a, b) and their weights against c1 (radial density 1 / (2 r log^2 r))."""
    r, w = _legendre_rule(a, b, n)
    return r, w / (2.0 * r * np.log(r) ** 2)


def _unit_rows(space: DiscSpace, log_r: np.ndarray) -> np.ndarray:
    """Unit rows c_ell r^ell / sqrt(K(r^2)), one per radius, in place: each row over its largest term, then its norm."""
    u = np.multiply.outer(log_r, space.ells)
    u += 0.5 * space.log_coeffs
    u -= np.max(u, axis=1, keepdims=True)
    np.exp(u, out=u)
    u /= np.sqrt(np.einsum("ij,ij->i", u, u))[:, None]
    return u


def _angular_squares(u: np.ndarray, i: np.ndarray, j: np.ndarray, n_t: int):
    """Yield (slice, t2) over the radius pairs (r[i], r[j]) in blocks of at most sections.BLOCK_ENTRIES entries.

    t2 = min(N_p^2, 1) at the angles 2 pi k / n_t, k = 0 .. n_t/2 (N_p is even in theta), N_p = |sum_ell d_ell e^(i ell
    theta)| with d = u[i] u[j]: folded mod n_t if L > n_t, as e^(i ell theta) depends on ell mod n_t, then one real FFT.
    """
    k = -(-u.shape[1] // n_t)
    step = max(1, sections.BLOCK_ENTRIES // (k * n_t))
    for lo in range(0, i.size, step):
        d = u[i[lo : lo + step]] * u[j[lo : lo + step]]
        if k > 1:
            d = np.pad(d, ((0, 0), (0, k * n_t - d.shape[1]))).reshape(len(d), k, n_t).sum(axis=1)
        f = np.fft.rfft(d, n=n_t, axis=1)
        yield slice(lo, lo + step), np.minimum(np.square(f.real) + np.square(f.imag), 1.0)


def _theta_mean(values: np.ndarray, n_t: int) -> np.ndarray:
    """Mean over all n_t angles (n_t even) from the half grid of `_angular_squares`."""
    return (2.0 * np.sum(values, axis=1) - values[:, 0] - values[:, -1]) / n_t


def _bipotential_means(u: np.ndarray, i: np.ndarray, j: np.ndarray, n_t: int) -> tuple[np.ndarray, int]:
    """Mean of Gt(N_p) over n_t angles for each radius pair (r[i], r[j]), and the number of near pairs; squares u.

    N_p^2 / 4 pi^2 is Parseval's sum, exact: the Gram matrix of u * u.  R = Gt(t) - t^2 / 4 pi^2 comes from the angle
    grid where N_p^2 > VARIANCE_TAU, for the near pairs: those whose peak N_p(theta = 0) = (u u^T)[i, j] (u >= 0) is.
    """
    near = np.flatnonzero(np.square((u @ u.T)[i, j]) > VARIANCE_TAU)
    rem_mean = np.empty(near.size)
    for sl, t2 in _angular_squares(u, i[near], j[near], n_t):
        hot = t2 > VARIANCE_TAU
        rem, t2_hot = np.zeros(t2.shape), t2[hot]
        rem[hot] = _gtilde_fast(t2_hot) - t2_hot / (4.0 * math.pi**2)
        rem_mean[sl] = _theta_mean(rem, n_t)
    out = (np.square(u, out=u) @ u.T)[i, j] / (4.0 * math.pi**2)
    out[near] += rem_mean
    return out, near.size


def _variance_pass(space: DiscSpace, phi: TestFunction, n_r: int, n_t: int) -> tuple[float, int]:
    r, meas = _c1_rule(phi.a, phi.b, n_r)
    vec = laplacian_ratio(phi, r) * meas
    i, j = np.triu_indices(n_r)
    means, near = _bipotential_means(_unit_rows(space, np.log(r)), i, j, n_t)
    return float((np.where(i == j, 1.0, 2.0) * vec[i] * vec[j]) @ means), near


def variance_bipotential(space: DiscSpace, phi: TestFunction, diagnostics: dict | None = None) -> float:
    """Var[Y(phi)] from the bipotential double integral; nonnegative.

    Adaptive: node counts double until successive values agree to
    VARIANCE_RTOL (relative); RuntimeError if the refinement cap is hit.
    Sets diagnostics["bipotential_radial_nodes"] and ["bipotential_near_pairs"], if given, from the final pass.
    """
    n_r, n_t = VARIANCE_RADIAL_NODES, VARIANCE_ANGULAR_NODES
    prev, _ = _variance_pass(space, phi, n_r, n_t)
    for _ in range(VARIANCE_MAX_REFINEMENTS):
        n_r, n_t = 2 * n_r, 2 * n_t
        cur, near = _variance_pass(space, phi, n_r, n_t)
        if abs(cur - prev) <= VARIANCE_RTOL * max(abs(cur), 1e-300):
            if diagnostics is not None:
                diagnostics.update(bipotential_radial_nodes=n_r, bipotential_near_pairs=near)
            return max(cur, 0.0)
        prev = cur
    raise RuntimeError("variance quadrature did not converge under refinement")


def variance_leading_term(phi: TestFunction, p: int) -> float:
    """zeta(3)/(4 pi^2 p) * int |L(phi)|^2 c1 by radial quadrature."""
    r, meas = _c1_rule(phi.a, phi.b, LEADING_TERM_NODES)
    lap = laplacian_ratio(phi, r)
    return APERY / (4.0 * math.pi**2 * p) * float(np.dot(lap * lap, meas))


def expected_linear_statistic(space: DiscSpace, phi: TestFunction) -> float:
    """E[Y(phi)] = int phi d n = -int phi'(r) n(r) dr (n = radial zero counting)."""
    r, w = _legendre_rule(phi.a, phi.b, LINSTAT_QUAD_NODES)
    return -float(np.dot(w, phi.d1(r) * zero_counting_function(space, r)))


def sodin_tsirelson_proxy(space: DiscSpace, region: Annulus) -> float:
    """sup_z int N_p(z, w) c1(w) over the region; a normality diagnostic.

    Decays with p (the correlation length shrinks like p^(-1/2)), which is
    the summability hypothesis behind the central limit theorem.
    """
    r, meas = _c1_rule(region.a, region.b, PROXY_RADIAL_NODES)
    i, j = np.indices((r.size, r.size)).reshape(2, -1)
    blocks = _angular_squares(_unit_rows(space, np.log(r)), i, j, PROXY_ANGULAR_NODES)
    mean_n = [_theta_mean(np.sqrt(t2), PROXY_ANGULAR_NODES) for _, t2 in blocks]
    return float(np.max(np.concatenate(mean_n).reshape(r.size, r.size) @ meas))
