"""Robustness analysis of interconnected systems through magnitude matrices.

Computes the classical spectral-radius robustness measure, a sparsity-aware
measure that prices the total rather than the largest channel uncertainty,
its convex upper bound via diagonal scaling, certificates and balanced
optimal scalings, a local balancing heuristic, and reproducible study and
report outputs.
"""

__version__ = "0.1.0"

from .balancer import (
    BalanceStep,
    BalanceTrace,
    StudyRow,
    TrialRecord,
    convergence_study,
    heuristic_balance,
    run_trials,
    trial_matrix,
)
from .errors import ValidationError
from .magnitude import (
    FirSystem,
    MagnitudeMatrix,
    magnitude_matrix,
)
from .nu_exact import (
    METHOD_CLOSED_FORM_2X2,
    METHOD_ORACLE,
    METHOD_RING,
    NuResult,
    nu_2x2,
    nu_oracle,
    nu_ring,
    ring_matrix,
)
from .nubar import (
    NubarResult,
    PhiView,
    ScalingVector,
    balance_residuals,
    balanced_solution,
    certify_optimality,
    nubar_exact,
    phi_view,
)
from .report_io import (
    Grid2x2Record,
    NuSummary,
    ReportDiagnostics,
    ReportRatios,
    RobustnessReport,
    SubsetSummary,
    read_matrix,
    read_report,
    read_system,
    write_matrix,
    write_report,
    write_trace,
)
from .spectral import (
    SpectralResult,
    SubsetBound,
    mu,
    nu_lower_bound,
    spectral_radius,
)

__all__ = [
    "__version__",
    "ValidationError",
    "FirSystem",
    "MagnitudeMatrix",
    "magnitude_matrix",
    "SpectralResult",
    "SubsetBound",
    "spectral_radius",
    "mu",
    "nu_lower_bound",
    "ScalingVector",
    "NubarResult",
    "PhiView",
    "phi_view",
    "nubar_exact",
    "certify_optimality",
    "balanced_solution",
    "balance_residuals",
    "BalanceStep",
    "BalanceTrace",
    "TrialRecord",
    "StudyRow",
    "heuristic_balance",
    "run_trials",
    "trial_matrix",
    "convergence_study",
    "NuResult",
    "nu_2x2",
    "nu_ring",
    "ring_matrix",
    "nu_oracle",
    "METHOD_CLOSED_FORM_2X2",
    "METHOD_RING",
    "METHOD_ORACLE",
    "RobustnessReport",
    "SubsetSummary",
    "NuSummary",
    "ReportRatios",
    "ReportDiagnostics",
    "Grid2x2Record",
    "read_matrix",
    "write_matrix",
    "read_system",
    "read_report",
    "write_report",
    "write_trace",
]
