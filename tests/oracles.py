"""Reference implementations that the tests compare the library against.

The scalar ones take one point (or one argument) and are written for
clarity, not speed; the library's batch and array paths are checked
against them, and the seed grid's int8 cell windings against the phase
path they replaced.  Section and kernel values are (log_modulus, phase)
pairs, with log_modulus = -inf, phase = 0 for an exact zero; `kernel`
sums the truncated L-series that the Poincare series of
`disc.normalized_kernel` replaced, whose phase sum cancels, so it is a
reference on near pairs only; `zero_counting_function` the L-series of
n(r) that the closed form replaced.  The bipotential ones are the per-pair
exponential path over an angle grid (one exponential per pair and ell,
a folded FFT per pair), normalized by the L-term log diagonal that the
closed form of `disc` replaced: the unit rows of `statistics` replaced
that path, and the closed form in y = -2 log r replaced them; at 8192
angles it is the closed form's reference.  The model-kernel ones check a solved potential and a
candidate kernel element against the defining equations; `gram_at` is the one-grid Gram build that
`model.gram_matrix` once called at n and at n/2 angles, each grid from scratch, the bit-for-bit
reference of the one-pass pair that replaced it.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from bergman_zeros import sections
from bergman_zeros.disc import Annulus, DiscSpace, DomainError, _checked_radii
from bergman_zeros.model import PotentialPair
from bergman_zeros.sections import _scales
from bergman_zeros.statistics import PROXY_RADIAL_NODES, VARIANCE_TAU, _c1_rule, _gtilde_fast

PROXY_ANGULAR_NODES = 192  # angles of `correlation_proxy`


def evaluate(space: DiscSpace, eta: np.ndarray, z: complex) -> tuple[float, float]:
    """Value of the section with coefficients eta at z in the h_p norm, as (log_modulus, phase).

    |S(z)|_{h_p} carries the weight |log|z|^2|^{p/2}; the series is summed
    after factoring out its largest log-scaled term.
    """
    r = abs(z)
    if not 0.0 < r < 1.0:
        raise DomainError(f"point with |z| = {r:.6g} outside the punctured disc")
    theta = math.atan2(z.imag, z.real)
    scale, m = _scales(space, math.log(r))
    s = np.sum(eta * scale * np.exp(1j * space.ells * theta))
    weight = 0.5 * space.p * math.log(-2.0 * math.log(r))
    if s == 0.0:
        return -math.inf, 0.0
    return weight + float(m) + math.log(abs(s)), math.atan2(s.imag, s.real)


def cell_windings(inner: tuple, outer: tuple) -> np.ndarray:
    """Winding numbers of the cells between two circles, as float integers, by their phases.

    inner and outer are taken as `sections._cell_windings` takes them; only
    their values (the first entry) are read.  Each of a cell's four phase
    increments, from np.angle, is wrapped into [-pi, pi], and the rint of
    their sum over 2 pi is the winding.
    """
    two_pi = 2.0 * math.pi

    def wrap(x: np.ndarray) -> np.ndarray:
        return x - two_pi * np.rint(x / two_pi)

    phase, prev_phase = np.angle(outer[0]), np.angle(inner[0])
    arc, prev_arc = wrap(np.roll(phase, -1, axis=1) - phase), wrap(np.roll(prev_phase, -1, axis=1) - prev_phase)
    radial = wrap(phase - prev_phase)
    return np.rint((arc - np.roll(radial, -1, axis=1) - prev_arc + radial) / two_pi)


def _off_diag(space: DiscSpace, z, zp) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(y, y', m, s), y = -2 log|z|, with sum_ell c_ell^2 (z zbar')^ell = e^m s, elementwise over the broadcast points.

    One domain check covers both point sets; space.L must cover them, as in `zero_counting_function`.
    """
    z, zp = np.asarray(z, dtype=np.complex128), np.asarray(zp, dtype=np.complex128)
    rz, rp = np.abs(z), np.abs(zp)
    _checked_radii(np.append(rz, rp))
    # z zbar' in real arithmetic, unfused: swapping the points then
    # conjugates it exactly, which numpy's complex product does not promise
    re = z.real * zp.real + z.imag * zp.imag
    im = z.imag * zp.real - z.real * zp.imag
    log_terms = space.log_coeffs + np.multiply.outer(np.log(np.hypot(re, im)), space.ells)
    m = np.max(log_terms, axis=-1)
    phases = np.exp(1j * np.multiply.outer(np.arctan2(im, re), space.ells))
    return -2.0 * np.log(rz), -2.0 * np.log(rp), m, np.sum(np.exp(log_terms - m[..., None]) * phases, axis=-1)


def kernel(space: DiscSpace, z: complex, zp: complex) -> tuple[float, float]:
    """Two-point kernel B_p(z, z') in the pointwise h_p norm, as (log_modulus, phase).

    The value is ``|log|z|^2|^(p/2) |log|z'|^2|^(p/2) sum_ell c_ell^2 (z zbar')^ell``.
    Hermitian: swapping arguments keeps the log-magnitude and flips the phase.
    """
    y, yp, m, s = _off_diag(space, z, zp)
    weight = 0.5 * space.p * (math.log(y) + math.log(yp))
    if s == 0.0:
        return -math.inf, 0.0
    return float(weight + m + math.log(abs(s))), math.atan2(s.imag, s.real)


def zero_counting_function(space: DiscSpace, r) -> np.ndarray:
    """n(r) from the truncated basis: the mean index sum_ell ell w_ell / sum_ell w_ell, w_ell = c_ell^2 r^(2 ell).

    The L-series that the closed form of `disc.zero_counting_function` replaced, elementwise over an array of radii;
    its reference where space.L covers the largest radius.
    """
    log_w = space.log_coeffs + 2.0 * np.multiply.outer(np.log(_checked_radii(r)), space.ells)
    w = np.exp(log_w - np.max(log_w, axis=-1, keepdims=True))
    return np.sum(space.ells * w, axis=-1) / np.sum(w, axis=-1)


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


def _log_diag(space: DiscSpace, log_r: np.ndarray) -> np.ndarray:
    """log of sum_{ell <= L} c_ell^2 r^(2 ell), the truncated unweighted diagonal series, from log r (an array)."""
    return logsumexp(space.log_coeffs + 2.0 * np.multiply.outer(log_r, space.ells), axis=-1)


def _pair_blocks(space: DiscSpace, log_r: np.ndarray, i: np.ndarray, j: np.ndarray, n_t: int):
    """Yield (slice, d, shift) over the radius pairs (r[i], r[j]), in blocks of at most sections.BLOCK_ENTRIES.

    N_p(r_i, r_j e^(i theta)) = e^shift |sum_ell d_ell e^(i ell theta)|, d_ell = c_ell^2 (r_i r_j)^ell / max >= 0:
    one exponential per pair and ell.
    """
    rows = max(1, sections.BLOCK_ENTRIES // space.L)
    logd = np.concatenate([_log_diag(space, log_r[lo : lo + rows]) for lo in range(0, log_r.size, rows)])
    step = max(1, sections.BLOCK_ENTRIES // (-(-space.L // n_t) * n_t))
    for lo in range(0, i.size, step):
        bi, bj = i[lo : lo + step], j[lo : lo + step]
        log_terms = space.log_coeffs + np.multiply.outer(log_r[bi] + log_r[bj], space.ells)
        m = np.max(log_terms, axis=1)
        yield slice(lo, lo + step), np.exp(log_terms - m[:, None]), m - 0.5 * (logd[bi] + logd[bj])


def _angular_values(d: np.ndarray, shift: np.ndarray, n_t: int) -> np.ndarray:
    """N_p at the angles 2 pi k / n_t, k = 0 .. n_t/2, for a `_pair_blocks` block: fold, one real FFT, abs."""
    k = -(-d.shape[1] // n_t)
    if k > 1:
        d = np.pad(d, ((0, 0), (0, k * n_t - d.shape[1]))).reshape(len(d), k, n_t).sum(axis=1)
    return np.minimum(np.abs(np.fft.rfft(d, n=n_t, axis=1)) * np.exp(shift)[:, None], 1.0)


def _theta_mean(values: np.ndarray, n_t: int) -> np.ndarray:
    """Mean over all n_t angles (n_t even) from the half grid theta = 2 pi k / n_t, k = 0 .. n_t/2."""
    return (2.0 * np.sum(values, axis=1) - values[:, 0] - values[:, -1]) / n_t


def bipotential_means(space: DiscSpace, log_r: np.ndarray, i: np.ndarray, j: np.ndarray, n_t: int) -> np.ndarray:
    """Mean of Gt(N_p) over n_t angles for each radius pair (r[i], r[j]), pair by pair from the log coefficients.

    Parseval's sum of d^2 for the N_p^2 / 4 pi^2 part; R = Gt(t) - t^2 / 4 pi^2 from the angle grid for the
    pairs with N_p(theta = 0)^2 > VARIANCE_TAU, where N_p^2 > VARIANCE_TAU.
    """
    out = np.empty(i.size)
    for sl, d, shift in _pair_blocks(space, log_r, i, j, n_t):
        scale = np.exp(shift)
        out[sl] = np.sum(d * d, axis=1) * scale**2 / (4.0 * math.pi**2)
        near = np.flatnonzero(np.square(np.sum(d, axis=1) * scale) > VARIANCE_TAU)
        t = _angular_values(d[near], shift[near], n_t)
        hot = t * t > VARIANCE_TAU
        rem = np.zeros(t.shape)
        rem[hot] = _gtilde_fast(np.square(t[hot])) - np.square(t[hot]) / (4.0 * math.pi**2)
        out[sl.start + near] += _theta_mean(rem, n_t)
    return out


def correlation_proxy(space: DiscSpace, region: Annulus) -> float:
    """`statistics.sodin_tsirelson_proxy` from the angular means of `_angular_values` on PROXY_ANGULAR_NODES angles."""
    r, meas = _c1_rule(region.a, region.b, PROXY_RADIAL_NODES)
    i, j = np.indices((r.size, r.size)).reshape(2, -1)
    blocks = _pair_blocks(space, np.log(r), i, j, PROXY_ANGULAR_NODES)
    mean_n = [_theta_mean(_angular_values(d, s, PROXY_ANGULAR_NODES), PROXY_ANGULAR_NODES) for _, d, s in blocks]
    return float(np.max(np.concatenate(mean_n).reshape(r.size, r.size) @ meas))


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


def gram_at(pp: PotentialPair, max_deg: int, n_theta: int) -> np.ndarray:
    """Monomial Gram matrix under e^(-phi) by the periodic trapezoid rule on n_theta angles, built from scratch."""
    rp = pp.rho_prime
    alpha = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    log_g = np.log(pp.angular_profile(alpha))
    n = max_deg + 1
    ks = (np.arange(0, 2 * max_deg + 1) + 2.0) / rp
    radial = np.exp(gammaln(ks)[:, None] - ks[:, None] * log_g[None, :]) / rp
    phases = np.exp(1j * np.outer(np.arange(-max_deg, max_deg + 1), alpha))
    F = phases @ radial.T * (2.0 * np.pi / n_theta)
    m, nn = np.indices((n, n))
    G = F[(m - nn) + max_deg, m + nn]
    return 0.5 * (G + G.conj().T)
