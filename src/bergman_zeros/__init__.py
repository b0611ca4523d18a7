"""Bergman kernels of the Poincare punctured disc, Gaussian holomorphic
sections, and the statistics of their random zeros."""

__version__ = "0.1.0"

from .disc import (
    Annulus,
    DiscSpace,
    DomainError,
    KernelValue,
    TruncationError,
    c1_area,
    expected_zero_measure,
    kernel,
    kernel_function,
    log_bergman_l1,
    make_disc_space,
    normalized_kernel,
    poincare_distance,
    sup_kernel,
)
from .model import (
    GramBasis,
    HomogeneousCurvature,
    PotentialPair,
    QuadratureError,
    gram_matrix,
    kernel_membership_residual,
    kernel_parity_and_jets,
    model_bergman_at_zero,
    solve_potential,
    weight_lower_bound_check,
)
from .sections import (
    SectionSample,
    ZeroSet,
    count_zeros_argument_principle,
    evaluate,
    find_zeros,
    linear_statistic,
    sample_section,
    truncation_length,
)
from .statistics import (
    Gtilde,
    TestFunction,
    laplacian_ratio,
    variance_bipotential,
    variance_leading_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
