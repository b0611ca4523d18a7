"""Model Bergman kernels at curvature-vanishing points.

A nonnegative homogeneous curvature coefficient psi(x, y) of degree
rho' - 2 determines first-order operators

    b  = -2 d/dz    + (psi / rho') zbar,
    b+ =  2 d/dzbar + (psi / rho') z,

whose kernel (sections annihilated by b+) is the weighted space
{ g(z) e^(-Psi/2) : g entire, |g|^2 e^(-phi) integrable }, where Psi is a
degree-rho' polynomial in z, zbar with d Psi / d zbar = psi z / rho' and
phi = Re Psi.  The kernel value at the origin is obtained from the Gram
matrix of the monomials under the weight e^(-phi):
B(0,0) = (G^{-1})_{00}.

Convention: psi is the curvature contraction iR(e1, e2).  A (1,1)-form
written as  rho(x,y) dz ^ dzbar  has psi = 2 rho, see
``HomogeneousCurvature.from_form_coefficient``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaln

__all__ = [
    "GramBasis",
    "HomogeneousCurvature",
    "PotentialPair",
    "QuadratureError",
    "gram_matrix",
    "kernel_diagonal",
    "kernel_membership_residual",
    "kernel_parity_and_jets",
    "model_bergman_at_zero",
    "solve_potential",
    "weight_lower_bound_check",
]


# Angular nodes of the monomial Gram matrix, and the largest step-halving
# disagreement accepted.  The radial integral is exact (a Gamma function
# after substitution), so only the angle is discretized; the periodic
# trapezoid rule converges spectrally.
GRAM_ANGULAR_NODES = 4096
GRAM_RTOL = 1e-6


class QuadratureError(RuntimeError):
    """Weighted-integral evaluation failed to certify the requested accuracy."""


@dataclass(frozen=True)
class HomogeneousCurvature:
    """Nonnegative homogeneous curvature coefficient psi = iR(e1, e2).

    ``psi_coeffs[i]`` multiplies x^i y^(d-i) with d = rho_prime - 2.
    """

    rho_prime: int
    psi_coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rho_prime < 2 or self.rho_prime % 2 != 0:
            raise ValueError(f"vanishing order rho' must be even and >= 2, got {self.rho_prime}")
        coeffs = np.asarray(self.psi_coeffs, dtype=np.float64)
        if coeffs.shape != (self.rho_prime - 1,):
            raise ValueError(
                f"psi of degree {self.rho_prime - 2} needs {self.rho_prime - 1} monomial coefficients"
            )
        object.__setattr__(self, "psi_coeffs", coeffs)
        coeffs.setflags(write=False)
        if np.all(coeffs == 0.0):
            raise ValueError("psi must not be identically zero")
        # nonnegativity on a dense angular grid (homogeneity reduces the
        # 1e4-point plane check to the unit circle)
        alpha = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
        if np.min(self(np.cos(alpha), np.sin(alpha))) < -1e-12:
            raise ValueError("psi must be nonnegative")

    @classmethod
    def from_monomials(cls, rho_prime: int, triples: Iterable[tuple[int, int, float]]) -> "HomogeneousCurvature":
        """Build from (i, j, coefficient) triples for monomials x^i y^j."""
        d = rho_prime - 2
        coeffs = np.zeros(d + 1)
        for i, j, c in triples:
            if i < 0 or j < 0 or i + j != d:
                raise ValueError(f"monomial x^{i} y^{j} is not homogeneous of degree {d}")
            coeffs[i] += c
        return cls(rho_prime=rho_prime, psi_coeffs=coeffs)

    @classmethod
    def from_form_coefficient(cls, rho_prime: int, triples: Iterable[tuple[int, int, float]]) -> "HomogeneousCurvature":
        """Build from the dz ^ dzbar coefficient of the curvature form.

        dz ^ dzbar = -2i dx ^ dy, so psi = iR(e1, e2) is twice the form
        coefficient.
        """
        return cls.from_monomials(rho_prime, [(i, j, 2.0 * c) for i, j, c in triples])

    def __call__(self, x, y):
        d = self.rho_prime - 2
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        out = np.zeros(np.broadcast(x, y).shape)
        for i, c in enumerate(self.psi_coeffs):
            if c != 0.0:
                out = out + c * x**i * y ** (d - i)
        return out

    def scaled(self, alpha: float) -> "HomogeneousCurvature":
        return HomogeneousCurvature(self.rho_prime, alpha * np.asarray(self.psi_coeffs))


def _xy_monomial_to_zzbar(i: int, j: int) -> dict[tuple[int, int], complex]:
    """Expand x^i y^j in monomials z^a zbar^b (x = (z+zbar)/2, y = (z-zbar)/2i)."""
    out: dict[tuple[int, int], complex] = {}
    for k in range(i + 1):
        ck = math.comb(i, k) * 0.5**i
        for m in range(j + 1):
            cm = math.comb(j, m) * (-1) ** (j - m) * (-0.5j) ** j
            a = k + m
            b = (i - k) + (j - m)
            out[(a, b)] = out.get((a, b), 0.0) + ck * cm
    return out


@dataclass(frozen=True)
class PotentialPair:
    """Solved potential Psi (degree-rho' polynomial in z, zbar) and phi = Re Psi."""

    curvature: HomogeneousCurvature
    psi_z_zbar: Mapping[tuple[int, int], complex] = field(repr=False)

    @property
    def rho_prime(self) -> int:
        return self.curvature.rho_prime

    def potential(self, z):
        """Psi(z) as a complex value."""
        z = np.asarray(z, dtype=np.complex128)
        zb = np.conj(z)
        out = np.zeros(z.shape, dtype=np.complex128)
        for (a, b), c in self.psi_z_zbar.items():
            if c != 0.0:
                out = out + c * z**a * zb**b
        return out

    def phi(self, z):
        """Weight exponent phi = Re Psi; homogeneous of degree rho'."""
        return np.real(self.potential(z))

    def dbar_potential(self, z):
        """d Psi / d zbar, for residual checks."""
        z = np.asarray(z, dtype=np.complex128)
        zb = np.conj(z)
        out = np.zeros(z.shape, dtype=np.complex128)
        for (a, b), c in self.psi_z_zbar.items():
            if b > 0 and c != 0.0:
                out = out + c * b * z**a * zb ** (b - 1)
        return out

    def angular_profile(self, alpha: np.ndarray) -> np.ndarray:
        """g(alpha) = phi on the unit circle, so phi = rho^rho' g(alpha)."""
        return self.phi(np.exp(1j * alpha))


def _canonical_gauge(g0: np.ndarray, rho_prime: int, alphas: np.ndarray) -> complex:
    """Gauge lambda maximizing the angular minimum of phi.

    Re(lambda z^rho') is harmonic, so it changes phi without changing the
    curvature; maximizing min_alpha phi(e^{i alpha}) over lambda is a
    3-variable linear program (Re lambda, Im lambda, level).  Radial
    profiles get lambda = 0 back.
    """
    from scipy.optimize import linprog

    cos_k = np.cos(rho_prime * alphas)
    sin_k = np.sin(rho_prime * alphas)
    # maximize t  s.t.  x cos - y sin + g0 >= t
    A = np.column_stack([-cos_k, sin_k, np.ones_like(alphas)])
    res = linprog(
        c=[0.0, 0.0, -1.0], A_ub=A, b_ub=g0,
        bounds=[(None, None), (None, None), (None, None)], method="highs",
    )
    if not res.success:
        raise QuadratureError(f"gauge selection failed: {res.message}")
    x, y, _ = res.x
    return complex(x, y)


def solve_potential(curv: HomogeneousCurvature, gauge: complex | None = None) -> PotentialPair:
    """Solve d Psi / d zbar = psi z / rho' for the potential Psi.

    The coefficient system is triangular: writing psi z / rho' in z, zbar
    monomials, each zbar-antiderivative is immediate.  The solution is
    unique up to lambda z^rho' (harmonic, curvature-free).  By default
    lambda is chosen to maximize the angular minimum of phi = Re Psi,
    which makes e^(-phi) decay along every ray whenever any polynomial
    gauge does; a fixed lambda of 0 would leave phi negative along rays
    for generic non-radial psi, and the monomial Gram integrals would
    diverge.  Pass an explicit ``gauge`` to override.
    """
    rp = curv.rho_prime
    d = rp - 2
    rhs: dict[tuple[int, int], complex] = {}
    for i, c in enumerate(curv.psi_coeffs):
        if c == 0.0:
            continue
        for (a, b), w in _xy_monomial_to_zzbar(i, d - i).items():
            key = (a + 1, b)  # multiply by z
            rhs[key] = rhs.get(key, 0.0) + c * w / rp
    psi_coeffs: dict[tuple[int, int], complex] = {}
    for (a, b), q in rhs.items():
        psi_coeffs[(a, b + 1)] = psi_coeffs.get((a, b + 1), 0.0) + q / (b + 1)
    if gauge is None:
        alphas = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        base = PotentialPair(curvature=curv, psi_z_zbar=dict(psi_coeffs))
        gauge = _canonical_gauge(base.angular_profile(alphas), rp, alphas)
        if abs(gauge) < 1e-13:
            gauge = 0.0
    psi_coeffs[(rp, 0)] = psi_coeffs.get((rp, 0), 0.0) + gauge
    return PotentialPair(curvature=curv, psi_z_zbar=psi_coeffs)


def weight_lower_bound_check(
    pp: PotentialPair,
    lower: Callable[[np.ndarray, np.ndarray], np.ndarray],
    points: np.ndarray,
    scale: float = 1.0,
    tol: float = 1e-12,
) -> bool:
    """True iff scale * phi >= lower(x, y) - tol at every supplied point."""
    z = np.asarray(points, dtype=np.complex128)
    lhs = scale * pp.phi(z)
    rhs = lower(np.real(z), np.imag(z))
    return bool(np.all(lhs >= rhs - tol))


@dataclass(frozen=True)
class GramBasis:
    """Monomial Gram matrix under e^(-phi) with its Cholesky factorization."""

    pp: PotentialPair
    max_deg: int
    gram: np.ndarray = field(repr=False)
    chol: tuple = field(repr=False)
    quad_error: float


def _gram_at(pp: PotentialPair, max_deg: int, n_theta: int) -> np.ndarray:
    rp = pp.rho_prime
    alpha = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    g = pp.angular_profile(alpha)
    gmin = float(np.min(g))
    if gmin <= 0.0:
        raise QuadratureError(
            f"weight e^(-phi) is not integrable: phi attains {gmin:.3e} on the unit circle"
        )
    n = max_deg + 1
    log_g = np.log(g)
    # radial: int_0^inf rho^(s+1) e^(-rho^rp g) d rho = Gamma((s+2)/rp) g^(-(s+2)/rp) / rp
    ks = (np.arange(0, 2 * max_deg + 1) + 2.0) / rp
    radial = np.exp(gammaln(ks)[:, None] - ks[:, None] * log_g[None, :]) / rp
    phases = np.exp(1j * np.outer(np.arange(-max_deg, max_deg + 1), alpha))
    # F[d, s] = (2 pi / n_theta) sum_k e^(i d alpha_k) radial[s, k]
    F = phases @ radial.T * (2.0 * np.pi / n_theta)
    m, nn = np.indices((n, n))
    G = F[(m - nn) + max_deg, m + nn]
    return 0.5 * (G + G.conj().T)


def gram_matrix(pp: PotentialPair, max_deg: int = 12) -> GramBasis:
    """Gram matrix G_mn = int z^m zbar^n e^(-phi) dA for m, n = 0..max_deg.

    Entry accuracy is certified by halving the GRAM_ANGULAR_NODES angular
    nodes and comparing (step-halving estimate); disagreement beyond
    GRAM_RTOL raises QuadratureError.
    """
    G = _gram_at(pp, max_deg, GRAM_ANGULAR_NODES)
    G_half = _gram_at(pp, max_deg, GRAM_ANGULAR_NODES // 2)
    scale = np.abs(np.diagonal(G))
    denom = np.sqrt(np.outer(scale, scale))
    err = float(np.max(np.abs(G - G_half) / denom))
    if err > GRAM_RTOL:
        raise QuadratureError(
            f"Gram quadrature not converged: step-halving disagreement {err:.3e} > {GRAM_RTOL:.1e}"
        )
    try:
        chol = cho_factor(G, lower=True)
    except np.linalg.LinAlgError as exc:
        raise QuadratureError(f"Gram matrix not positive definite: {exc}") from exc
    return GramBasis(pp=pp, max_deg=max_deg, gram=G, chol=chol, quad_error=err)


def model_bergman_at_zero(basis: GramBasis) -> float:
    """B(0, 0) = (G^{-1})_{00}: only the constant monomial survives at 0."""
    e0 = np.zeros(basis.max_deg + 1)
    e0[0] = 1.0
    val = float(np.real(cho_solve(basis.chol, e0)[0]))
    if val <= 0.0:
        raise QuadratureError("model kernel value at 0 is not positive; Gram inversion failed")
    return val


def kernel_diagonal(basis: GramBasis, z) -> np.ndarray:
    """Model kernel on the diagonal, K(Z, Z) = v(Z)^H G^{-1} v(Z) e^(-phi(Z))."""
    z = np.asarray(z, dtype=np.complex128)
    flat = z.ravel()
    powers = flat[None, :] ** np.arange(basis.max_deg + 1)[:, None]
    sol = cho_solve(basis.chol, powers)
    quad_form = np.real(np.sum(np.conj(powers) * sol, axis=0))
    out = quad_form * np.exp(-basis.pp.phi(flat))
    return out.reshape(z.shape)


# central finite-difference weights of the derivative of order 0..4 (the
# row) on the offsets -2..2 (the column), in units of the step
JET_STENCIL = np.array(
    [
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, -0.5, 0.0, 0.5, 0.0],
        [0.0, 1.0, -2.0, 1.0, 0.0],
        [-0.5, 1.0, 0.0, -1.0, 0.5],
        [1.0, -4.0, 6.0, -4.0, 1.0],
    ]
)


def kernel_parity_and_jets(
    basis: GramBasis, order: int = 4, step: float = 1e-3
) -> dict[tuple[int, int], float]:
    """Finite-difference partials of K(Z, Z) at 0 up to the given total order.

    Returns {(i, j): d^(i+j) K / dx^i dy^j (0)}.  Odd total orders vanish
    for any even weight (the Gram matrix is checkerboard), so their
    finite differences sit at the roundoff floor.
    """
    if order > 4:
        raise ValueError("jets supported up to order 4")
    xs = np.arange(-2, 3) * step
    K = kernel_diagonal(basis, xs[:, None] + 1j * xs[None, :])
    return {
        (i, j): float(JET_STENCIL[i] @ K @ JET_STENCIL[j]) / step ** (i + j)
        for i in range(order + 1)
        for j in range(order + 1 - i)
    }


def kernel_membership_residual(
    pp: PotentialPair,
    f: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
    f_dbar: Callable[[np.ndarray], np.ndarray] | None = None,
    fd_step: float = 1e-6,
) -> float:
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
