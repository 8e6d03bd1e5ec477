"""Sparse coded distributed matrix-vector multiplication.

Encode an M x N matrix A into P short rows so that any K finished
workers recover A @ x, plus competing parallelization strategies, the
fundamental sparsity/recovery trade-off bounds, and a shifted-
exponential straggler latency model (closed forms, numeric integration
and deterministic Monte Carlo).
"""

from .bounds import (
    BoundReport,
    basic_lower_bound,
    check_achievability,
    lambda_cap,
    tight_bound_gap,
    tight_lower_bound,
    tight_lower_bound_exact,
)
from .coding import (
    EncodedTransform,
    WorkerOutput,
    WorkerTask,
    decode,
    decode_with_errors,
    encode,
    encode_chunked,
    run_workers,
    supports_from_pattern,
    zero_mask,
)
from .errors import ConditioningError, DecodingError
from .generator import (
    COND_LIMIT,
    GeneratorMatrix,
    build_generator,
    chebyshev_nodes,
    verify_generator,
)
from .latency import (
    CdfFactor,
    DelayModel,
    RegimeRow,
    SimulationReport,
    expected_kth_order,
    expected_time,
    expected_time_mds,
    expected_time_numeric,
    expected_time_repetition,
    expected_time_short_dot,
    expected_time_uncoded,
    harmonic,
    monte_carlo,
    optimize_k,
    repetition_closed_form,
    sample_time,
    theorem4_regime,
    uncoded_closed_form,
)
from .params import CodeParams, validate_params
from .serialization import load_matrix, load_transform, save_matrix, save_transform
from .strategies import (
    STRATEGY_NAMES,
    RecoveryRule,
    TaskPlan,
    finish_times,
    plan_by_name,
    plan_mds,
    plan_repetition_block,
    plan_short_dot,
    plan_short_mds,
    plan_uncoded,
    recoverable,
)

__version__ = "0.1.0"
