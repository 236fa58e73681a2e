"""Private information retrieval from noise-protected MDS-coded storage.

Core pieces: the prime field GF(q) and its residue contract (``field``),
Cauchy-Vandermonde linear algebra (``linalg``), the layered retrieval scheme
with its layout rule, storage and query coders, coded-share kernel and round
decoder, all shared with PSDMM (``protocol``), Reed-Solomon
error decoding by Gao's algorithm (``robust``),
distribution-equality guarantees (``audit``), private secure distributed
matrix multiplication as the retrieval code at X = X_eff (``psdmm``), the
simulation harness (``sim``), and a command-line frontend (``cli``).
"""

from .field import PrimeField, is_prime, smallest_prime_geq
from .linalg import (
    DecodingMatrix,
    EvaluationPoints,
    FieldMatrix,
    SingularMatrixError,
    build_decoding_matrix,
)
from .protocol import (
    AnswerBundle,
    InfeasibleParamsError,
    MessageSet,
    ProtocolParams,
    QueryBundle,
    QueryNoise,
    ServerStorage,
    StorageNoise,
    achievable_rate,
    comparison_rate_prior,
    decode,
    default_field,
    default_points,
    derive_params,
    encode_storage,
    gen_queries,
    server_answer,
)
from .robust import DecodingFailure, RobustDecoder
from . import audit, psdmm, sim  # noqa: E402  (submodule access convenience)

__all__ = [
    "AnswerBundle",
    "DecodingFailure",
    "DecodingMatrix",
    "EvaluationPoints",
    "FieldMatrix",
    "InfeasibleParamsError",
    "MessageSet",
    "PrimeField",
    "ProtocolParams",
    "QueryBundle",
    "QueryNoise",
    "RobustDecoder",
    "ServerStorage",
    "SingularMatrixError",
    "StorageNoise",
    "achievable_rate",
    "build_decoding_matrix",
    "comparison_rate_prior",
    "decode",
    "default_field",
    "default_points",
    "derive_params",
    "encode_storage",
    "gen_queries",
    "is_prime",
    "server_answer",
    "smallest_prime_geq",
]

__version__ = "0.1.0"
