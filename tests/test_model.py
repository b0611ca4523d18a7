"""Model kernels at curvature-vanishing points: potential, Gram, jets."""

import math

import numpy as np
import pytest
import scipy.optimize

from bergman_zeros import model
from bergman_zeros.experiments import model_kernel_experiment
from bergman_zeros.model import (
    HomogeneousCurvature,
    QuadratureError,
    gram_matrix,
    kernel_diagonal,
    kernel_parity_and_jets,
    model_bergman_at_zero,
    solve_potential,
)
from oracles import dbar_potential, gram_at, kernel_membership_residual


def example_quartic(z):
    """The explicit quartic exponent of the degree-4 example."""
    zb = np.conj(z)
    return (z * zb) ** 2 - z**3 * zb - (1.0 / 3.0) * z * zb**3 + 0.5 * z**4


def example_section(z):
    """Explicit kernel element of the degree-4 example, normalized to 1 at 0."""
    return np.exp(-example_quartic(z) / 16.0)


def example_section_dbar(z):
    zb = np.conj(z)
    dq = 2.0 * z**2 * zb - z**3 - z * zb**2
    return -dq / 16.0 * example_section(z)


@pytest.fixture(scope="module")
def quartic_curv():
    # form coefficient y^2 on dz ^ dzbar, i.e. psi = iR(e1,e2) = 2 y^2
    return HomogeneousCurvature.from_monomials(4, [(0, 2, 2.0)])


class TestCurvatureValidation:
    def test_rejects_odd_order(self):
        with pytest.raises(ValueError):
            HomogeneousCurvature.from_monomials(3, [(0, 1, 1.0)])

    def test_rejects_sign_changing(self):
        with pytest.raises(ValueError):
            HomogeneousCurvature.from_monomials(4, [(1, 1, 1.0)])  # xy changes sign

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            HomogeneousCurvature.from_monomials(4, [(0, 2, 0.0)])

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            HomogeneousCurvature.from_monomials(4, [(0, 1, 1.0)])


class TestSolvePotential:
    def test_constant_curvature(self):
        pp = solve_potential(HomogeneousCurvature.from_monomials(2, [(0, 0, 1.0)]))
        # Psi = |z|^2 / 2 for psi = 1 (radial, so no gauge term)
        assert pp.psi_z_zbar[(1, 1)] == pytest.approx(0.5)
        assert abs(pp.psi_z_zbar.get((2, 0), 0.0)) < 1e-14

    def test_defining_equation(self, quartic_curv):
        pp = solve_potential(quartic_curv)
        rng = np.random.default_rng(2)
        z = rng.normal(size=40) + 1j * rng.normal(size=40)
        lhs = dbar_potential(pp, z)
        rhs = quartic_curv(z.real, z.imag) * z / 4.0
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_quartic_example_coefficients(self, quartic_curv):
        # with the gauge fixed at 1/16 the potential is exactly the quartic
        # exponent / 8, and e^(-Psi/2) is the explicit section of the example
        pp = solve_potential(quartic_curv, gauge=1.0 / 16.0)
        expect = {(2, 2): 0.125, (3, 1): -0.125, (1, 3): -1.0 / 24.0, (4, 0): 1.0 / 16.0}
        for key, val in expect.items():
            assert pp.psi_z_zbar[key] == pytest.approx(val, abs=1e-14)
        rng = np.random.default_rng(3)
        z = rng.normal(size=30, scale=1.2) + 1j * rng.normal(size=30, scale=1.2)
        assert np.max(np.abs(np.exp(-pp.potential(z) / 2.0) - example_section(z))) < 1e-12

    def test_laplacian_identity(self, quartic_curv):
        # (1/2)(d_xx + d_yy) Re Psi = psi, by central differences
        pp = solve_potential(quartic_curv)
        h = 1e-4
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lap = (
                pp.phi(z + h) + pp.phi(z - h) + pp.phi(z + 1j * h) + pp.phi(z - 1j * h) - 4.0 * pp.phi(z)
            ) / h**2
            assert 0.5 * lap == pytest.approx(float(quartic_curv(z.real, z.imag)), abs=1e-5)

    def test_linearity_in_curvature(self, quartic_curv):
        pp1 = solve_potential(quartic_curv)
        pp2 = solve_potential(HomogeneousCurvature(4, 2.0 * quartic_curv.psi_coeffs))
        for key, val in pp1.psi_z_zbar.items():
            assert pp2.psi_z_zbar[key] == pytest.approx(2.0 * val, abs=1e-13)

    def test_gauge_makes_weight_ray_positive(self, quartic_curv):
        pp = solve_potential(quartic_curv)
        alphas = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        assert np.min(pp.angular_profile(alphas)) > 0.0
        # the zero gauge leaves phi negative along rays (not integrable)
        pp0 = solve_potential(quartic_curv, gauge=0.0)
        assert np.min(pp0.angular_profile(alphas)) < 0.0


# (rho', monomial triples): the degree-4 example, two radial curvatures and a non-radial sextic
CURVATURES = {
    "constant": (2, [(0, 0, 1.0)]),
    "quartic": (4, [(0, 2, 2.0)]),
    "radial-quartic": (4, [(2, 0, 2.0), (0, 2, 2.0)]),
    "sextic": (6, [(4, 0, 1.0), (2, 2, 0.5), (0, 4, 2.0)]),
}


def _radial(rho_prime, c):
    """c |z|^(rho' - 2) as monomial triples: c C(k, j) x^2j y^(2k - 2j), k = rho'/2 - 1."""
    k = rho_prime // 2 - 1
    return [(2 * j, 2 * (k - j), c * math.comb(k, j)) for j in range(k + 1)]


class TestRadialGauge:
    def test_radial_predicate(self):
        radial = {name: HomogeneousCurvature.from_monomials(*args).radial for name, args in CURVATURES.items()}
        assert radial == {"constant": True, "quartic": False, "radial-quartic": True, "sextic": False}
        assert HomogeneousCurvature.from_monomials(8, _radial(8, 0.7)).radial
        assert not HomogeneousCurvature.from_monomials(6, [(4, 0, 1.0), (0, 4, 1.0)]).radial  # x^4 + y^4

    def test_radial_gauge_needs_no_linear_program(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("linprog called")

        monkeypatch.setattr(scipy.optimize, "linprog", refuse)
        for name in ("constant", "radial-quartic"):
            rho_prime, triples = CURVATURES[name]
            pp = solve_potential(HomogeneousCurvature.from_monomials(rho_prime, triples))
            assert pp.psi_z_zbar[(rho_prime, 0)] == 0.0
        # a non-radial curvature still solves its linear program
        with pytest.raises(RuntimeError, match="linprog called"):
            solve_potential(HomogeneousCurvature.from_monomials(*CURVATURES["quartic"]))

    def test_quartic_gauge_bits(self, quartic_curv):
        assert solve_potential(quartic_curv).psi_z_zbar[(4, 0)] == 0.05944885506356661


class TestWeightLowerBound:
    def test_explicit_quartic_inequality(self, quartic_curv):
        # Re(quartic) >= x^4/24 + y^4/6; with the 1/16 gauge, Re(quartic) = 8 phi
        pp = solve_potential(quartic_curv, gauge=1.0 / 16.0)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-5, 5, size=20_000).view(np.complex128)
        lower = lambda x, y: x**4 / 24.0 + y**4 / 6.0
        assert np.all(8.0 * pp.phi(pts) >= lower(pts.real, pts.imag) - 1e-12)
        # direct evaluation oracle ties the check to the explicit quartic
        direct = np.real(example_quartic(pts))
        assert np.max(np.abs(direct - 8.0 * pp.phi(pts))) < 1e-10
        assert np.all(direct >= lower(pts.real, pts.imag) - 1e-12)

    def test_pointwise_values(self, quartic_curv):
        pp = solve_potential(quartic_curv, gauge=1.0 / 16.0)
        assert complex(example_quartic(1.0 + 0j)).real == pytest.approx(1.0 / 6.0)
        assert 1.0 / 6.0 >= 1.0 / 24.0
        assert complex(example_quartic(0j)).real == 0.0
        assert 8.0 * pp.phi(0j) >= -1e-12


class TestGramMatrix:
    def test_fock_diagonal(self):
        # phi = |z|^2: entries are pi n! on the diagonal, zero elsewhere
        pp = solve_potential(HomogeneousCurvature.from_monomials(2, [(0, 0, 2.0)]))
        basis = gram_matrix(pp, max_deg=6)
        for n in range(7):
            assert basis.gram[n, n].real == pytest.approx(math.pi * math.factorial(n), rel=1e-12)
        off = basis.gram - np.diag(np.diagonal(basis.gram))
        assert np.max(np.abs(off)) < 1e-10

    def test_positive_definite_and_stable(self, quartic_potential, monkeypatch):
        monkeypatch.setattr(model, "GRAM_ANGULAR_NODES", 2048)
        b1 = gram_matrix(quartic_potential, max_deg=8)
        monkeypatch.setattr(model, "GRAM_ANGULAR_NODES", 4096)
        b2 = gram_matrix(quartic_potential, max_deg=8)
        v1, v2 = model_bergman_at_zero(b1), model_bergman_at_zero(b2)
        assert abs(v1 - v2) / v2 < 1e-6
        evals = np.linalg.eigvalsh(b1.gram)
        assert np.min(evals) > 0.0

    def test_non_integrable_weight_raises(self, quartic_curv):
        pp0 = solve_potential(quartic_curv, gauge=0.0)
        with pytest.raises(QuadratureError):
            gram_matrix(pp0, max_deg=4)


class TestGramPair:
    # the one-pass pair must reproduce, bit for bit, the two grids that were built from scratch: the
    # parity jets read finite-difference rounding, so any change to a Gram bit moves the model_kernel golden
    @pytest.mark.parametrize("nodes", [4096, 2048])
    @pytest.mark.parametrize("name", sorted(CURVATURES))
    def test_matches_one_grid_builds(self, monkeypatch, name, nodes):
        monkeypatch.setattr(model, "GRAM_ANGULAR_NODES", nodes)
        pp = solve_potential(HomogeneousCurvature.from_monomials(*CURVATURES[name]))
        for max_deg in (8, 16):
            G, G_half = model._gram_pair(pp, max_deg)
            assert np.array_equal(G, gram_at(pp, max_deg, nodes))
            assert np.array_equal(G_half, gram_at(pp, max_deg, nodes // 2))


class TestRadialPrediction:
    @pytest.mark.parametrize("rho_prime", [2, 4, 6, 8])
    def test_radial_closed_form(self, rho_prime):
        report = model_kernel_experiment(rho_prime, _radial(rho_prime, 1.5), max_deg=12)
        [row] = [r for r in report.rows if r.statistic == "model_kernel_at_zero"]
        assert abs(row.estimate / row.prediction - 1.0) <= 1e-13
        assert report.all_passed

    def test_constant_curvature_prediction_bits(self):
        for c in (0.5, 1.0, 2.0):
            report = model_kernel_experiment(2, [(0, 0, c)], max_deg=8)
            assert report.rows[0].prediction == c / (2.0 * math.pi)

    def test_wrong_potential_constant_fails(self, monkeypatch):
        # a potential solved for half the curvature: kappa = c / rho'^2 in place of 2c / rho'^2
        solve = model.solve_potential
        monkeypatch.setattr(
            model, "solve_potential", lambda curv: solve(HomogeneousCurvature(curv.rho_prime, curv.psi_coeffs / 2.0))
        )
        report = model_kernel_experiment(4, _radial(4, 2.0), max_deg=12)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["model_kernel_radial_curvature"]

    def test_non_radial_has_no_prediction(self):
        report = model_kernel_experiment(*CURVATURES["quartic"], max_deg=8)
        assert report.rows[0].prediction is None
        assert "model_kernel_radial_curvature" not in {c.name for c in report.checks}


class TestModelKernelAtZero:
    def test_constant_curvature_values(self):
        for c in (0.5, 1.0, 2.0):
            pp = solve_potential(HomogeneousCurvature.from_monomials(2, [(0, 0, c)]))
            val = model_bergman_at_zero(gram_matrix(pp, max_deg=8))
            assert val == pytest.approx(c / (2.0 * math.pi), rel=1e-8)

    def test_strictly_positive(self, quartic_basis):
        assert model_bergman_at_zero(quartic_basis) > 0.0

    def test_variational_lower_bound(self, quartic_basis, quartic_potential):
        # B(0,0) >= |f(0)|^2 / ||f||^2 for the explicit kernel element f;
        # ||f||^2 by independent 2-d quadrature
        from scipy.integrate import dblquad

        norm2, err = dblquad(
            lambda y, x: abs(example_section(x + 1j * y)) ** 2, -12, 12, -12, 12,
            epsabs=1e-9, epsrel=1e-9,
        )
        assert err < 1e-6
        assert model_bergman_at_zero(quartic_basis) >= 1.0 / norm2

    def test_truncation_monotone_from_below(self, quartic_potential):
        vals = [
            model_bergman_at_zero(gram_matrix(quartic_potential, max_deg=n))
            for n in (8, 12, 16, 20)
        ]
        diffs = np.diff(vals)
        assert np.all(diffs > 0.0)  # growing subspace
        assert diffs[2] < diffs[1] < diffs[0]  # geometric-type decay

    def test_smooth_dependence_on_curvature(self, monkeypatch):
        # one-parameter family psi_t = x^2 + t y^2, t in [0.5, 1.5]
        monkeypatch.setattr(model, "GRAM_ANGULAR_NODES", 2048)
        ts = np.arange(0.5, 1.5001, 0.05)
        vals = []
        for t in ts:
            curv = HomogeneousCurvature.from_monomials(4, [(2, 0, 1.0), (0, 2, float(t))])
            pp = solve_potential(curv)
            vals.append(model_bergman_at_zero(gram_matrix(pp, max_deg=10)))
        vals = np.asarray(vals)
        steps = np.abs(np.diff(vals))
        slope = np.abs(np.gradient(vals, ts))
        local = np.maximum(slope[:-1], slope[1:])
        assert np.all(steps <= 10.0 * local * 0.05 + 1e-12)


class TestMembershipResidual:
    def test_constant_curvature_exact(self):
        c = 1.0
        curv = HomogeneousCurvature.from_monomials(2, [(0, 0, c)])
        pp = solve_potential(curv)
        f = lambda z: np.exp(-c * np.abs(z) ** 2 / 4.0)
        f_dbar = lambda z: -c * z / 4.0 * f(z)
        grid = (np.linspace(-2, 2, 21)[:, None] + 1j * np.linspace(-2, 2, 21)[None, :]).ravel()
        assert kernel_membership_residual(pp, f, grid, f_dbar=f_dbar) <= 1e-12

    def test_quartic_example_member(self, quartic_potential):
        xs = np.linspace(-3, 3, 50)
        grid = (xs[:, None] + 1j * xs[None, :]).ravel()
        res = kernel_membership_residual(
            quartic_potential, example_section, grid, f_dbar=example_section_dbar
        )
        assert res <= 1e-10

    def test_quartic_example_finite_difference_path(self, quartic_potential):
        xs = np.linspace(-2, 2, 20)
        grid = (xs[:, None] + 1j * xs[None, :]).ravel()
        assert kernel_membership_residual(quartic_potential, example_section, grid) <= 1e-6

    def test_antiholomorphic_rejected(self):
        curv = HomogeneousCurvature.from_monomials(2, [(0, 0, 1.0)])
        pp = solve_potential(curv)
        f = lambda z: np.conj(z)
        f_dbar = lambda z: np.ones_like(z)
        circle = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        assert kernel_membership_residual(pp, f, circle, f_dbar=f_dbar) > 0.5


class TestParityAndJets:
    def test_odd_jets_vanish(self, quartic_basis):
        jets = kernel_parity_and_jets(quartic_basis)
        for (i, j), val in jets.items():
            if (i + j) % 2 == 1:
                assert abs(val) <= 1e-6

    def test_even_diagonal(self, quartic_basis):
        rng = np.random.default_rng(6)
        z = rng.uniform(-1.5, 1.5, 100) + 1j * rng.uniform(-1.5, 1.5, 100)
        assert np.max(np.abs(kernel_diagonal(quartic_basis, z) - kernel_diagonal(quartic_basis, -z))) < 1e-10

    def test_order_zero_matches_value(self, quartic_basis):
        jets = kernel_parity_and_jets(quartic_basis)
        assert jets[(0, 0)] == pytest.approx(model_bergman_at_zero(quartic_basis), rel=1e-12)

    def test_rotation_covariance_radial(self):
        curv = HomogeneousCurvature.from_monomials(4, [(2, 0, 1.0), (0, 2, 1.0)])
        basis = gram_matrix(solve_potential(curv), max_deg=10)
        rng = np.random.default_rng(7)
        z = rng.uniform(0.2, 1.3, 50) * np.exp(2j * np.pi * rng.random(50))
        rotated = z * np.exp(0.83j)
        assert np.max(np.abs(kernel_diagonal(basis, rotated) - kernel_diagonal(basis, z))) < 1e-10
