"""Generalized Cholesky factorization of saddle-point matrices, with rigorous
perturbation bounds (normwise and componentwise) and a verification harness."""

from .densela import (
    UNIT_ROUNDOFF,
    ConvergenceError,
    ParseError,
    ShapeError,
    SingularMatrixError,
    fro_norm,
    gamma_k,
    lower_tri_inverse,
    matmul,
    read_matrix,
    singular_values,
    spectral_norm,
    up_operator,
    write_matrix,
)
from .factorization import (
    BlockSpec,
    FactorizationError,
    GenCholFactor,
    SaddleMatrix,
    SaddleValidationError,
    factorize,
    factorize_dense,
    read_saddle,
    reconstruct,
    write_saddle,
)
from .bounds import (
    ComponentwiseBoundReport,
    NormwiseBoundReport,
    NormwiseEvaluator,
    build_componentwise_report,
    eps_componentwise,
    report_to_json,
    scaling_candidates,
)
from .oracle import (
    actual_delta_l,
    build_w,
    compensated_residual,
    duvec,
    unuvec,
    uvec_lower,
    w_inverse_norm,
)
from .harness import (
    EnsembleConfig,
    emit_report,
    gen_spd,
    gen_sym_perturbation,
    make_saddle,
    run_componentwise_campaign,
    run_gamma_sweep,
    run_normwise_campaign,
)

__version__ = "0.1.0"
