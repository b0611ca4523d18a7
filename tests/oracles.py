"""Reference implementations that the tests compare the library against.

The scalar ones take one point (or one argument) and are written for
clarity, not speed; the library's batch and array paths are checked
against them.  Section and kernel values are (log_modulus, phase) pairs,
with log_modulus = -inf, phase = 0 for an exact zero.  The model-kernel
ones check a solved potential and a candidate kernel element against the
defining equations.
"""

import math

import numpy as np
from scipy.integrate import quad

from bergman_zeros.disc import DiscSpace, DomainError, _off_diag
from bergman_zeros.model import PotentialPair
from bergman_zeros.sections import _scaled_coefficients


def evaluate(space: DiscSpace, eta: np.ndarray, z: complex) -> tuple[float, float]:
    """Value of the section with coefficients eta at z in the h_p norm, as (log_modulus, phase).

    |S(z)|_{h_p} carries the weight |log|z|^2|^{p/2}; the series is summed
    after factoring out its largest log-scaled term.
    """
    r = abs(z)
    if not 0.0 < r < 1.0:
        raise DomainError(f"point with |z| = {r:.6g} outside the punctured disc")
    theta = math.atan2(z.imag, z.real)
    coeff, m = _scaled_coefficients(space, eta, math.log(r))
    s = np.sum(coeff * np.exp(1j * space.ells * theta))
    weight = 0.5 * space.p * math.log(-2.0 * math.log(r))
    if s == 0.0:
        return -math.inf, 0.0
    return weight + float(m) + math.log(abs(s)), math.atan2(s.imag, s.real)


def kernel(space: DiscSpace, z: complex, zp: complex) -> tuple[float, float]:
    """Two-point kernel B_p(z, z') in the pointwise h_p norm, as (log_modulus, phase).

    The value is ``|log|z|^2|^(p/2) |log|z'|^2|^(p/2) sum_ell c_ell^2 (z zbar')^ell``.
    Hermitian: swapping arguments keeps the log-magnitude and flips the phase.
    """
    rz, rp, m, s = _off_diag(space, z, zp)
    weight = 0.5 * space.p * (math.log(-2.0 * math.log(rz)) + math.log(-2.0 * math.log(rp)))
    if s == 0.0:
        return -math.inf, 0.0
    return float(weight + m + math.log(abs(s))), math.atan2(s.imag, s.real)


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


def dbar_potential(pp: PotentialPair, z) -> np.ndarray:
    """d Psi / d zbar of the solved potential, term by term."""
    z = np.asarray(z, dtype=np.complex128)
    zb = np.conj(z)
    out = np.zeros(z.shape, dtype=np.complex128)
    for (a, b), c in pp.psi_z_zbar.items():
        if b > 0 and c != 0.0:
            out = out + c * b * z**a * zb ** (b - 1)
    return out


def kernel_membership_residual(pp: PotentialPair, f, grid, f_dbar=None, fd_step: float = 1e-6) -> float:
    """max over the grid of |b+ f| / (1 + |f|) with b+ = 2 d/dzbar + (psi/rho') z.

    If no analytic dzbar-derivative is supplied it is estimated by central
    differences in x and y (d/dzbar = (d/dx + i d/dy)/2).
    """
    z = np.asarray(grid, dtype=np.complex128).ravel()
    fz = np.asarray(f(z), dtype=np.complex128)
    if f_dbar is not None:
        dbar = np.asarray(f_dbar(z), dtype=np.complex128)
    else:
        h = fd_step
        fx = (np.asarray(f(z + h)) - np.asarray(f(z - h))) / (2.0 * h)
        fy = (np.asarray(f(z + 1j * h)) - np.asarray(f(z - 1j * h))) / (2.0 * h)
        dbar = 0.5 * (fx + 1j * fy)
    psi = pp.curvature(np.real(z), np.imag(z))
    bp = 2.0 * dbar + (psi / pp.rho_prime) * z * fz
    return float(np.max(np.abs(bp) / (1.0 + np.abs(fz))))
