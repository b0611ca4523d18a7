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
B(0,0) = (G^{-1})_{00}.  Each Gram entry is a Gamma function in the
radius and a trapezoid sum in the angle, one real FFT per radial row; the
step-halving check sums over every other node of the same set.
The harmonic gauge of Psi is a small linear program, except for a radial
psi, which takes gauge 0 by symmetry.

Convention: psi is the curvature contraction iR(e1, e2).  A (1,1)-form
written as  rho(x,y) dz ^ dzbar  has psi = 2 rho, because
dz ^ dzbar = -2i dx ^ dy: a curvature given by its form coefficient is
entered with every coefficient doubled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

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
    "kernel_parity_and_jets",
    "model_bergman_at_zero",
    "solve_potential",
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

    @property
    def radial(self) -> bool:
        """Whether psi = c |z|^(rho' - 2), i.e. constant on the unit circle; c is ``psi_coeffs[0]``.

        Exact on the coefficients: c (x^2 + y^2)^k has C(k, j) c at x^(2j) y^(2k - 2j).
        """
        k = (self.rho_prime - 2) // 2
        c = self.psi_coeffs[0]
        return all(
            self.psi_coeffs[i] == (math.comb(k, i // 2) * c if i % 2 == 0 else 0.0)
            for i in range(self.psi_coeffs.size)
        )

    def __call__(self, x, y):
        d = self.rho_prime - 2
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        out = np.zeros(np.broadcast(x, y).shape)
        for i, c in enumerate(self.psi_coeffs):
            if c != 0.0:
                out = out + c * x**i * y ** (d - i)
        return out


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

    def angular_profile(self, alpha: np.ndarray) -> np.ndarray:
        """g(alpha) = phi on the unit circle, so phi = rho^rho' g(alpha)."""
        return self.phi(np.exp(1j * alpha))


def _canonical_gauge(g0: np.ndarray, rho_prime: int, alphas: np.ndarray) -> complex:
    """Gauge lambda maximizing the angular minimum of phi.

    Re(lambda z^rho') is harmonic, so it changes phi without changing the
    curvature; maximizing min_alpha phi(e^{i alpha}) over lambda is a
    3-variable linear program (Re lambda, Im lambda, level).
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
    diverge.  A radial psi takes lambda = 0 by symmetry, with no linear
    program: Re(lambda e^(i rho' alpha)) has circle mean 0, so no lambda
    raises the (constant) minimum.  Pass an explicit ``gauge`` to
    override.
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
    if gauge is None and curv.radial:
        gauge = 0.0
    elif gauge is None:
        alphas = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        base = PotentialPair(curvature=curv, psi_z_zbar=dict(psi_coeffs))
        gauge = _canonical_gauge(base.angular_profile(alphas), rp, alphas)
        if abs(gauge) < 1e-13:
            gauge = 0.0
    psi_coeffs[(rp, 0)] = psi_coeffs.get((rp, 0), 0.0) + gauge
    return PotentialPair(curvature=curv, psi_z_zbar=psi_coeffs)


@dataclass(frozen=True)
class GramBasis:
    """Monomial Gram matrix under e^(-phi) with its Cholesky factorization."""

    pp: PotentialPair
    max_deg: int
    gram: np.ndarray = field(repr=False)
    chol: tuple = field(repr=False)


def _gram_pair(pp: PotentialPair, max_deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices on the GRAM_ANGULAR_NODES angles and on every other one of them.

    One node set serves both quadratures: linspace(0, 2 pi, n)[::2] is
    linspace(0, 2 pi, n/2) bit for bit, so the step-halved matrix takes
    every other column of the radial table, each row summed by one rfft.
    """
    rp = pp.rho_prime
    alpha = np.linspace(0.0, 2.0 * np.pi, GRAM_ANGULAR_NODES, endpoint=False)
    g = pp.angular_profile(alpha)
    gmin = float(np.min(g))
    if gmin <= 0.0:
        raise QuadratureError(f"weight e^(-phi) is not integrable: phi attains {gmin:.3e} on the unit circle")
    n = max_deg + 1
    ks = (np.arange(0, 2 * max_deg + 1) + 2.0) / rp
    m, nn = np.indices((n, n))

    def gram(table: np.ndarray) -> np.ndarray:
        # G_mn = F[m - n, m + n], F[d, s] = (2 pi / nodes) sum_k e^(i d alpha_k) table[s, k]: entry |d| of the
        # row's real FFT, conjugated for d >= 0, so that the matrix is Hermitian as built
        F = np.fft.rfft(table)[:, :n] * (2.0 * np.pi / table.shape[1])
        G = F[m + nn, np.abs(m - nn)]
        return np.where(m >= nn, G.conj(), G)

    # radial: int_0^inf rho^(s+1) e^(-rho^rp g) d rho = Gamma((s+2)/rp) g^(-(s+2)/rp) / rp.  An overflow leaves a
    # matrix that is not finite, which `gram_matrix` reports
    with np.errstate(over="ignore", invalid="ignore"):
        radial = np.exp(gammaln(ks)[:, None] - ks[:, None] * np.log(g)[None, :]) / rp
        return gram(radial), gram(radial[:, ::2])


def gram_matrix(pp: PotentialPair, max_deg: int = 12) -> GramBasis:
    """Gram matrix G_mn = int z^m zbar^n e^(-phi) dA for m, n = 0..max_deg.

    Entry accuracy is certified by step-halving: the same quadrature on
    every other one of the GRAM_ANGULAR_NODES angles (one node set serves
    both) must agree within GRAM_RTOL, or QuadratureError is raised, as
    it is for a max_deg above GRAM_ANGULAR_NODES // 4, a matrix not finite,
    or one too ill-conditioned for its Cholesky factor.
    """
    if max_deg < 0:
        raise ValueError(f"max_deg {max_deg} leaves no monomial: it must be >= 0")
    if max_deg > GRAM_ANGULAR_NODES // 4:  # the highest frequency the step-halved nodes resolve
        raise QuadratureError(f"max_deg {max_deg} exceeds {GRAM_ANGULAR_NODES // 4}, the step-halved nodes' limit")
    G, G_half = _gram_pair(pp, max_deg)
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(G_half))):
        raise QuadratureError(f"Gram matrix not finite at max_deg {max_deg}: its radial moments overflow")
    scale = np.abs(np.diagonal(G))
    denom = np.sqrt(np.outer(scale, scale))
    err = float(np.max(np.abs(G - G_half) / denom))
    if err > GRAM_RTOL:
        raise QuadratureError(f"Gram quadrature not converged: step-halving disagreement {err:.3e} > {GRAM_RTOL:.1e}")
    try:
        chol = cho_factor(G, lower=True)
    except np.linalg.LinAlgError as exc:
        raise QuadratureError(
            f"Gram matrix not positive definite at max_deg {max_deg}: the monomial Gram is too ill-conditioned"
            f" at that degree ({exc})"
        ) from exc
    return GramBasis(pp=pp, max_deg=max_deg, gram=G, chol=chol)


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
# row) on the offsets -2..2 (the column), in units of the step JET_STEP
JET_STEP = 1e-3
JET_STENCIL = np.array(
    [
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, -0.5, 0.0, 0.5, 0.0],
        [0.0, 1.0, -2.0, 1.0, 0.0],
        [-0.5, 1.0, 0.0, -1.0, 0.5],
        [1.0, -4.0, 6.0, -4.0, 1.0],
    ]
)


def kernel_parity_and_jets(basis: GramBasis) -> dict[tuple[int, int], float]:
    """Finite-difference partials of K(Z, Z) at 0 up to total order 4.

    Returns {(i, j): d^(i+j) K / dx^i dy^j (0)}.  Odd total orders vanish
    for any even weight (the Gram matrix is checkerboard), so their
    finite differences sit at the roundoff floor.
    """
    xs = np.arange(-2, 3) * JET_STEP
    K = kernel_diagonal(basis, xs[:, None] + 1j * xs[None, :])
    return {
        (i, j): float(JET_STENCIL[i] @ K @ JET_STENCIL[j]) / JET_STEP ** (i + j)
        for i in range(5)
        for j in range(5 - i)
    }

