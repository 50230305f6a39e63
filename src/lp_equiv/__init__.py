"""Sparsity/lp-minimization equivalence toolkit for Vandermonde-type matrices.

The package answers three related questions about an m x n moment matrix
A[i, j] = lam_j**i built from nodes with pairwise distinct magnitudes:

* below which exponent p does every lp-quasinorm minimizer of A x = b agree
  with the sparsest representation (threshold p_star from the Gram spectrum);
* how the threshold degenerates along an explicit t-indexed augmented family
  whose sparsest solutions sit at a deep sparsity level; and
* how narrow instances embed into that family by extending the node set.

Everything is exact-arithmetic-free and certificate-oriented: spark values
come with witnesses, spectra with argmin/argmax supports, and every claimed
inequality is either asserted (machinery the package guarantees) or reported
with counterexample dumps (claims inheriting the contested spectral sandwich).
"""

__version__ = "0.1.0"

from .analysis import (
    ChainAudit,
    ChainStep,
    CrossTermReport,
    ScalarCheckReport,
    SequenceCheckReport,
    audit_theorem1_chain,
    c_pq,
    cross_term_check,
    f_lemma3,
    f_lemma3_grid,
    lemma2_sequence_check,
    phi_bound,
    phi_bound_grid,
    theorem1_coefficient,
)
from .matgen import (
    AugmentedSpec,
    DenseMatrix,
    VandermondeSpec,
    b_vectors,
    build_augmented_0,
    build_augmented_t,
    build_vandermonde,
    extend_lambda,
    sample_instance,
)
from .numerics import (
    BudgetExceededError,
    SamplingError,
    compensated_sum,
    derive_seed,
    lp_margin,
    lp_power_sum,
    subset_budget,
)
from .solvers import (
    BasicSolutions,
    EquivalenceReport,
    InfeasibleProblemError,
    KernelSamples,
    LpMinimum,
    PlantedInstance,
    SparseProblem,
    SparseSolution,
    SparseSolutionSet,
    Theorem1Report,
    Theorem2Report,
    Theorem3Report,
    default_p_grid,
    enumerate_basic_solutions,
    null_space_basis,
    plant_sparse_instance,
    plant_with_level,
    sample_null,
    solve_l0,
    solve_lp_basic,
    theorem2_sequences,
    verify_strict_inequality,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from .spark import (
    Prop1Report,
    SparkCertificate,
    SubmatrixReport,
    check_submatrix_invertibility,
    compute_spark,
    verify_prop1,
)
from .spectral import (
    Lemma1Report,
    RestrictedSpectrum,
    SpectralSummary,
    gram_spectrum,
    lemma1_constants,
    p_star_from_extremes,
    restricted_extremes,
)
from .suite import CheckResult, RunConfig, RunManifest, json_safe, run_suite

__all__ = [
    "__version__",
    # numerics
    "BudgetExceededError",
    "SamplingError",
    "compensated_sum",
    "derive_seed",
    "lp_margin",
    "lp_power_sum",
    "subset_budget",
    # matrices
    "VandermondeSpec",
    "AugmentedSpec",
    "DenseMatrix",
    "build_vandermonde",
    "build_augmented_t",
    "build_augmented_0",
    "b_vectors",
    "extend_lambda",
    "sample_instance",
    # spark
    "SparkCertificate",
    "SubmatrixReport",
    "Prop1Report",
    "compute_spark",
    "check_submatrix_invertibility",
    "verify_prop1",
    # spectrum
    "SpectralSummary",
    "RestrictedSpectrum",
    "Lemma1Report",
    "gram_spectrum",
    "restricted_extremes",
    "lemma1_constants",
    "p_star_from_extremes",
    # solvers and harnesses
    "InfeasibleProblemError",
    "BasicSolutions",
    "SparseProblem",
    "SparseSolution",
    "SparseSolutionSet",
    "LpMinimum",
    "KernelSamples",
    "EquivalenceReport",
    "PlantedInstance",
    "Theorem1Report",
    "Theorem2Report",
    "Theorem3Report",
    "solve_l0",
    "enumerate_basic_solutions",
    "solve_lp_basic",
    "null_space_basis",
    "sample_null",
    "verify_strict_inequality",
    "plant_sparse_instance",
    "plant_with_level",
    "default_p_grid",
    "verify_theorem1",
    "theorem2_sequences",
    "verify_theorem2",
    "verify_theorem3",
    # scalar analysis
    "ScalarCheckReport",
    "SequenceCheckReport",
    "CrossTermReport",
    "ChainStep",
    "ChainAudit",
    "c_pq",
    "f_lemma3",
    "f_lemma3_grid",
    "phi_bound",
    "phi_bound_grid",
    "lemma2_sequence_check",
    "cross_term_check",
    "audit_theorem1_chain",
    "theorem1_coefficient",
    # suite
    "RunConfig",
    "RunManifest",
    "CheckResult",
    "run_suite",
    "json_safe",
]
