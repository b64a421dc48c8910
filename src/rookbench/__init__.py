"""Coded batch matrix multiplication over a prime field, with a
fault-injection master-worker simulator and op-count benchmarks."""

from .field import (
    M61,
    DimensionMismatch,
    FieldError,
    FieldMatrix,
    OpCounter,
    PrimeField,
    SingularMatrix,
    mat_lincomb,
    mat_mul,
    mat_random,
    solve_linear,
)
from .exponents import (
    ExponentPair,
    ParameterSearchExhausted,
    SearchBudgetExceeded,
    SumSupport,
    base3_exponents,
    behrend_exponents,
    is_3ap_free,
    is_decodable,
    min_recovery_bruteforce,
    poly_code_exponents,
    sum_support,
)
from .rook import (
    NotEnoughProducts,
    RookScheme,
    SingularAfterRetry,
    WorkerProduct,
    WorkerShare,
    encode_delta,
    make_rook_scheme,
    rook_decode,
    rook_encode_share,
    rook_worker,
)
from .baselines import (
    ALL_SCHEMES,
    CsaScheme,
    LccScheme,
    ReplicationScheme,
    SchemeDescriptor,
    UncoveredPair,
    bind_scheme,
    csa_decode,
    csa_encode,
    lcc_decode,
    lcc_encode,
    make_csa_scheme,
    make_lcc_scheme,
    scheme_threshold,
)
from .sim import ConfigInvalid, FaultModel, SimConfig, SimReport, run_simulation, sweep, sweep_to_csv

__version__ = "0.1.0"
