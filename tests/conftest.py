import pytest

from bergman_zeros import disc, sections


@pytest.fixture(scope="session")
def space80():
    p = 80
    return disc.make_disc_space(p, sections.truncation_length(p, 0.7))


@pytest.fixture(scope="session")
def quartic_potential():
    """The degree-4 curvature example (form coefficient y^2, so psi = 2 y^2)."""
    from bergman_zeros import model

    curv = model.HomogeneousCurvature.from_monomials(4, [(0, 2, 2.0)])
    return model.solve_potential(curv)


@pytest.fixture(scope="session")
def quartic_basis(quartic_potential):
    from bergman_zeros import model

    return model.gram_matrix(quartic_potential, max_deg=12)
