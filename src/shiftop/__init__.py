"""Finite truncations of shift operators driven by transfer symbols.

The package models transfer functions with absolutely summable coefficients
as finitely supported Laurent series, takes the norms of their unilateral
(triangular Toeplitz) truncations, and quantifies the invertibility asymmetry
between those and the bilateral (circulant) truncations, read off the
symbol's grid spectrum: a symbol with a root inside the unit circle inverts
anticausally on the bilateral side while its triangular truncations blow up
geometrically.  A process layer drives moving-average simulations,
innovation recovery, and ergodic checks off the same symbols, and a CLI
(``shiftop``) exposes the reports.  A function is exported only while the
commands, the acceptance checks, the benchmark or another module call it.
"""

__version__ = "0.1.0"

from .wiener import (
    ONE,
    ZERO,
    WienerElement,
    evaluate,
    evaluate_on_grid,
    l1_norm,
    load_coefficients,
    multiply,
    sup_norm,
    sup_norm_grid_error,
)
from .operators import (
    IsometryRow,
    OperatorKind,
    TruncatedOperator,
    build_unilateral,
    compression_norm,
    isometry_sweep,
    operator_norm,
)
from .invertibility import (
    AsymmetryRow,
    InversionResult,
    InversionSide,
    NotInvertibleError,
    RootClassification,
    TailNotCertifiedError,
    Verdict,
    WideFloat,
    asymmetry_report,
    classify_roots,
    invert_anticausal,
    invert_causal,
)
from .process import (
    ErgodicRow,
    FilterConvergenceRow,
    ProcessSample,
    ReconstructionReport,
    WoldEstimate,
    divergence_demo,
    ergodic_mean_check,
    formal_reconstruction,
    l1_filter_convergence,
    ma_autocovariance,
    reconstruct_innovations,
    simulate,
    wold_estimate,
)

__all__ = [
    "__version__",
    "ONE",
    "ZERO",
    "WienerElement",
    "evaluate",
    "evaluate_on_grid",
    "l1_norm",
    "load_coefficients",
    "multiply",
    "sup_norm",
    "sup_norm_grid_error",
    "IsometryRow",
    "OperatorKind",
    "TruncatedOperator",
    "build_unilateral",
    "compression_norm",
    "isometry_sweep",
    "operator_norm",
    "AsymmetryRow",
    "InversionResult",
    "InversionSide",
    "NotInvertibleError",
    "RootClassification",
    "TailNotCertifiedError",
    "Verdict",
    "WideFloat",
    "asymmetry_report",
    "classify_roots",
    "invert_anticausal",
    "invert_causal",
    "ErgodicRow",
    "FilterConvergenceRow",
    "ProcessSample",
    "ReconstructionReport",
    "WoldEstimate",
    "divergence_demo",
    "ergodic_mean_check",
    "formal_reconstruction",
    "l1_filter_convergence",
    "ma_autocovariance",
    "reconstruct_innovations",
    "simulate",
    "wold_estimate",
]
