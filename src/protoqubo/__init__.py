"""Prototype selection (hard vector quantization) via binary quadratic optimization.

Builds the medoid-style and kernel-density-matching formulations of
k-prototype selection as constrained quadratic binary programs, folds them
into QUBO matrices, solves them exactly or with simulated annealing, and
verifies the identity that makes the two formulations coincide for
normalized Mercer kernels.
"""

__version__ = "0.1.0"

from .density import MmdReport, kde_density, kde_density_subset, mmd_squared
from .errors import CapacityError, InputError, NumericalIntegrityError, PreconditionError
from .formulations import (
    EquivalenceReport,
    build_kde_qbp,
    build_med_qbp,
    kde_equivalent_med_params,
    verify_equivalence,
)
from .kernels import (
    Dataset,
    DistanceMatrix,
    KernelMatrix,
    KernelSpec,
    LaplacianKernel,
    RbfKernel,
    euclidean_distance_matrix,
    eval_kernel,
    kernel_matrix,
    kernel_to_distance,
)
from .medoids import (
    ClusterAssignment,
    lloyd_iteration,
    lloyd_kmedoids,
    medoid_of,
    within_cluster_scatter,
)
from .qubo import (
    QbpInstance,
    QuboInstance,
    SaSchedule,
    Selection,
    SolveReport,
    qbp_energy,
    qbp_to_qubo,
    qubo_energy,
    solve_constrained_exhaustive,
    solve_exhaustive,
    solve_sa,
    sufficient_penalty,
    write_qubo,
)

__all__ = [
    "__version__",
    "CapacityError",
    "ClusterAssignment",
    "Dataset",
    "DistanceMatrix",
    "EquivalenceReport",
    "InputError",
    "KernelMatrix",
    "KernelSpec",
    "LaplacianKernel",
    "MmdReport",
    "NumericalIntegrityError",
    "PreconditionError",
    "QbpInstance",
    "QuboInstance",
    "RbfKernel",
    "SaSchedule",
    "Selection",
    "SolveReport",
    "build_kde_qbp",
    "build_med_qbp",
    "euclidean_distance_matrix",
    "eval_kernel",
    "kde_density",
    "kde_density_subset",
    "kde_equivalent_med_params",
    "kernel_matrix",
    "kernel_to_distance",
    "lloyd_iteration",
    "lloyd_kmedoids",
    "medoid_of",
    "mmd_squared",
    "qbp_energy",
    "qbp_to_qubo",
    "qubo_energy",
    "solve_constrained_exhaustive",
    "solve_exhaustive",
    "solve_sa",
    "sufficient_penalty",
    "verify_equivalence",
    "within_cluster_scatter",
    "write_qubo",
]
