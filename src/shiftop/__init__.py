"""Finite truncations of shift operators driven by transfer symbols.

The package models transfer functions with absolutely summable coefficients
as finitely supported Laurent series, realizes them as unilateral
(triangular Toeplitz) and bilateral (circulant) matrix truncations, and
quantifies the invertibility asymmetry between the two: a symbol with a root
inside the unit circle inverts anticausally on the bilateral side while its
triangular truncations blow up geometrically.  A process layer drives
moving-average simulations, innovation recovery, and ergodic checks off the
same symbols, and a CLI (``shiftop``) exposes the reports.
"""

__version__ = "0.1.0"

from .wiener import (
    ONE,
    ZERO,
    WienerElement,
    add,
    evaluate,
    evaluate_on_grid,
    l1_norm,
    load_coefficients,
    monomial,
    multiply,
    save_coefficients,
    sup_norm,
    sup_norm_grid_error,
)
from .operators import (
    IsometryRow,
    OperatorKind,
    TruncatedOperator,
    build_bilateral,
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
    formal_ar_coefficients,
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
    "add",
    "evaluate",
    "evaluate_on_grid",
    "l1_norm",
    "load_coefficients",
    "monomial",
    "multiply",
    "save_coefficients",
    "sup_norm",
    "sup_norm_grid_error",
    "IsometryRow",
    "OperatorKind",
    "TruncatedOperator",
    "build_bilateral",
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
    "formal_ar_coefficients",
    "l1_filter_convergence",
    "ma_autocovariance",
    "reconstruct_innovations",
    "simulate",
    "wold_estimate",
]
