"""Smooth statistics of the zero point process: test functions, the
bipotential profile, and number-variance formulas.

The linear statistic of a test function phi is Y(phi) = sum phi(zero).
Its variance has the bipotential representation

    Var[Y(phi)] = int int L(phi)(z) L(phi)(w) Gt(N_p(z, w)) c1(z) c1(w),

where N_p is the normalized kernel, L(phi) is the density of
i d dbar phi against c1, and Gt(t) = (1/4 pi^2) sum_j t^(2j) / j^2 is a
rescaled dilogarithm.  For radial phi, rotation invariance of N_p
collapses the double surface integral to three dimensions (r, r',
relative angle); only radial test functions are supported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import spence

from .disc import Annulus, DiscSpace, _log_diag

__all__ = [
    "APERY",
    "Gtilde",
    "TestFunction",
    "laplacian_ratio",
    "normalized_kernel_grid",
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
# Gauss-Legendre nodes of the leading-term integral; radial and angular
# nodes of the correlation proxy.
LEADING_TERM_NODES = 512
PROXY_RADIAL_NODES = 48
PROXY_ANGULAR_NODES = 192


@dataclass(frozen=True)
class TestFunction:
    """Radial C^infinity bump supported on the annulus a < |z| < b.

    profile(r) = amplitude * exp(1 - 1/(1 - u^2)) with
    u = (2r - (a+b)) / (b-a); the function and all radial derivatives
    vanish at the support endpoints (class C^3 and beyond; the curvature
    of the disc model never vanishes, so no extra flatness condition is
    required of test functions here).
    """

    a: float
    b: float
    amplitude: float = 1.0

    __test__ = False  # not a pytest class despite the name

    def __post_init__(self):
        if not 0.0 < self.a < self.b < 1.0:
            raise ValueError(f"support must satisfy 0 < a < b < 1, got ({self.a}, {self.b})")

    @property
    def support(self) -> Annulus:
        return Annulus(self.a, self.b)

    def _u(self, r):
        return (2.0 * np.asarray(r, dtype=np.float64) - (self.a + self.b)) / (self.b - self.a)

    def value(self, r):
        u = self._u(r)
        inside = np.abs(u) < 1.0
        w = np.where(inside, 1.0 - u * u, 1.0)
        out = np.where(inside, np.exp(1.0 - 1.0 / w), 0.0)
        return self.amplitude * out

    def d1(self, r):
        """First radial derivative, analytic."""
        u = self._u(r)
        s = 2.0 / (self.b - self.a)
        inside = np.abs(u) < 1.0
        w = np.where(inside, 1.0 - u * u, 1.0)
        val = np.where(inside, np.exp(1.0 - 1.0 / w), 0.0)
        return self.amplitude * s * np.where(inside, val * (-2.0 * u / w**2), 0.0)

    def d2(self, r):
        """Second radial derivative, analytic."""
        u = self._u(r)
        s = 2.0 / (self.b - self.a)
        inside = np.abs(u) < 1.0
        w = np.where(inside, 1.0 - u * u, 1.0)
        val = np.where(inside, np.exp(1.0 - 1.0 / w), 0.0)
        expr = 4.0 * u * u / w**4 - 2.0 / w**2 - 8.0 * u * u / w**3
        return self.amplitude * s * s * np.where(inside, val * expr, 0.0)

    def __call__(self, z) -> float:
        """Value at a complex point (radial profile)."""
        return float(self.value(abs(z)))


def laplacian_ratio(phi: TestFunction, z) -> float | np.ndarray:
    """Density L(phi) of i d dbar phi against c1 = omega / 2 pi.

    For the cusp form, i d dbar phi = (Delta_euc phi / 2) dx dy and
    c1 = dx dy / (pi r^2 log^2(r^2)), which gives the closed form

        L(phi)(z) = (pi / 2) (phi'' + phi'/r) r^2 log^2(r^2).
    """
    r = np.abs(np.asarray(z))
    scalar = r.ndim == 0
    r = np.atleast_1d(r).astype(np.float64)
    out = np.zeros(r.shape)
    mask = (r > 0.0) & (r < 1.0)
    rm = r[mask]
    lap = phi.d2(rm) + phi.d1(rm) / rm
    out[mask] = 0.5 * math.pi * lap * rm**2 * np.log(rm**2) ** 2
    return float(out[0]) if scalar else out


def _gtilde_series(t: float) -> float:
    x = t * t
    terms = []
    j = 1
    xj = x
    while xj / (j * j) > 1e-20 and j < 100_000:
        terms.append(xj / (j * j))
        j += 1
        xj *= x
    return math.fsum(terms) / (4.0 * math.pi**2)


def _gtilde_integral(t: float) -> float:
    if t == 0.0:
        return 0.0

    def integrand(s: float) -> float:
        return 1.0 if s == 0.0 else -math.log1p(-s) / s

    val, _ = quad(integrand, 0.0, t * t, limit=200, epsabs=1e-15, epsrel=1e-13)
    return val / (4.0 * math.pi**2)


def Gtilde(t: float) -> float:
    """Bipotential profile (1/4 pi^2) sum_j t^(2j) / j^2 on [0, 1].

    Series with compensated summation away from 1; the equivalent
    integral form -(1/4 pi^2) int_0^{t^2} log(1-s)/s ds near t = 1, where
    the series converges too slowly.  The two representations agree to
    1e-12 on [0, 0.999]; Gtilde(1) = 1/24.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"Gtilde domain is [0, 1], got {t}")
    if t == 0.0:
        return 0.0
    if t * t <= 0.9:
        return _gtilde_series(t)
    return _gtilde_integral(t)


def _gtilde_fast(t: np.ndarray) -> np.ndarray:
    # Li2(t^2) / (4 pi^2) via scipy's spence for vectorized inner loops;
    # agrees with Gtilde to 1e-12 (asserted in the test suite)
    return spence(1.0 - np.square(t)) / (4.0 * math.pi**2)


# ---------------------------------------------------------------------------
# normalized-kernel grids and the variance integral


def normalized_kernel_grid(space: DiscSpace, r: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """N_p on the product grid: entry [i, j, k] is N_p(r_i, r_j, theta_k).

    Uses rotation invariance: both points are taken at radius (r_i, r_j)
    with relative angle theta_k.  The h_p weights cancel in N_p.
    """
    r = np.asarray(r, dtype=np.float64)
    n = r.size
    log_r = np.log(r)
    logd = _log_diag(space, log_r)
    log_rr = np.add.outer(log_r, log_r)  # log(r_i r_j)
    iu, ju = np.triu_indices(n)
    log_terms = space.log_coeffs[None, :] + log_rr[iu, ju][:, None] * space.ells[None, :]
    m = np.max(log_terms, axis=1)
    d = np.exp(log_terms - m[:, None])
    phases = np.exp(1j * np.outer(space.ells, thetas))
    off = np.abs(d @ phases)
    with np.errstate(divide="ignore"):
        log_n = np.log(off) + (m - 0.5 * (logd[iu] + logd[ju]))[:, None]
    block = np.exp(log_n)
    out = np.empty((n, n, thetas.size))
    out[iu, ju, :] = block
    out[ju, iu, :] = block
    return np.minimum(out, 1.0)


def _variance_pass(space: DiscSpace, phi: TestFunction, n_r: int, n_t: int) -> float:
    x, w = leggauss(n_r)
    r = 0.5 * (phi.b - phi.a) * x + 0.5 * (phi.a + phi.b)
    wr = 0.5 * (phi.b - phi.a) * w
    # radial density of c1: int f c1 = int f(r) dr / (2 r log^2 r)
    meas = wr / (2.0 * r * np.log(r) ** 2)
    lap = laplacian_ratio(phi, r)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_t, endpoint=False)
    npk = normalized_kernel_grid(space, r, thetas)
    gbar = np.mean(_gtilde_fast(npk), axis=2)
    vec = lap * meas
    return float(vec @ gbar @ vec)


def variance_bipotential(space: DiscSpace, phi: TestFunction) -> float:
    """Var[Y(phi)] from the bipotential double integral; nonnegative.

    Adaptive: node counts double until successive values agree to
    VARIANCE_RTOL (relative); RuntimeError if the refinement cap is hit.
    """
    n_r, n_t = VARIANCE_RADIAL_NODES, VARIANCE_ANGULAR_NODES
    prev = _variance_pass(space, phi, n_r, n_t)
    for _ in range(VARIANCE_MAX_REFINEMENTS):
        n_r *= 2
        n_t *= 2
        cur = _variance_pass(space, phi, n_r, n_t)
        if abs(cur - prev) <= VARIANCE_RTOL * max(abs(cur), 1e-300):
            return max(cur, 0.0)
        prev = cur
    raise RuntimeError("variance quadrature did not converge under refinement")


def variance_leading_term(phi: TestFunction, p: int) -> float:
    """zeta(3)/(4 pi^2 p) * int |L(phi)|^2 c1 by radial quadrature."""
    x, w = leggauss(LEADING_TERM_NODES)
    r = 0.5 * (phi.b - phi.a) * x + 0.5 * (phi.a + phi.b)
    wr = 0.5 * (phi.b - phi.a) * w
    meas = wr / (2.0 * r * np.log(r) ** 2)
    lap = laplacian_ratio(phi, r)
    return APERY / (4.0 * math.pi**2 * p) * float(np.dot(lap * lap, meas))


def sodin_tsirelson_proxy(space: DiscSpace, region: Annulus) -> float:
    """sup_z int N_p(z, w) c1(w) over the region; a normality diagnostic.

    Decays with p (the correlation length shrinks like p^(-1/2)), which is
    the summability hypothesis behind the central limit theorem.
    """
    x, w = leggauss(PROXY_RADIAL_NODES)
    r = 0.5 * (region.b - region.a) * x + 0.5 * (region.a + region.b)
    wr = 0.5 * (region.b - region.a) * w
    meas = wr / (2.0 * r * np.log(r) ** 2)
    thetas = np.linspace(0.0, 2.0 * math.pi, PROXY_ANGULAR_NODES, endpoint=False)
    npk = normalized_kernel_grid(space, r, thetas)
    integral = np.mean(npk, axis=2) @ meas
    return float(np.max(integral))
