"""Budgeted batch classification via early exit with a reject option.

A bank of classifier heads of increasing cost scores each instance;
an instance exits at the first head whose confidence clears that
head's calibrated threshold, otherwise it is rejected onward to the
next head. Thresholds are fit on a held-out split so that the batch
as a whole stays inside a total compute budget.
"""

from .allocation import (
    DEFAULT_BETA,
    AllocationProblem,
    allocation_objective,
    default_prior,
    gibbs_epsilons,
    single_head_rate,
    solve_allocation,
)
from .calibration import build_policy, sequential_rates, threshold_for_rate
from .domain import (
    AllocationResult,
    BatchResult,
    BudgetSpec,
    ExitPolicy,
    HeadBank,
    HeadSlice,
)
from .errors import (
    EeroError,
    EmptyCalibration,
    HeadCountMismatch,
    InfeasibleBudget,
    InvalidSpec,
    LabelLengthMismatch,
    MissingLabels,
    NonIncreasingBudgets,
    NotOnSimplex,
    ParseError,
    RowNotNormalized,
    ShapeMismatch,
)
from .inference import BudgetReport, classify_batch, iter_classify, measure_budget
from .io import (
    Dataset,
    Split,
    as_dataset,
    compute_risks,
    load_manifest,
    load_policy,
    save_policy,
    write_dataset,
)
from .oracle import (
    OracleInstance,
    OracleResult,
    build_correctness,
    oracle_curve,
    oracle_exact,
)
from .scoring import (
    DEFAULT_JITTER,
    SCORE_KINDS,
    ScoreSpec,
    jitter_matrix,
    predict_matrix,
    score_matrix,
)
from .synth import SynthData, SynthSpec, default_spec, generate

__version__ = "0.1.0"

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "BatchResult",
    "BudgetReport",
    "BudgetSpec",
    "DEFAULT_BETA",
    "DEFAULT_JITTER",
    "Dataset",
    "Split",
    "EeroError",
    "EmptyCalibration",
    "ExitPolicy",
    "HeadBank",
    "HeadCountMismatch",
    "HeadSlice",
    "InfeasibleBudget",
    "InvalidSpec",
    "LabelLengthMismatch",
    "MissingLabels",
    "NonIncreasingBudgets",
    "NotOnSimplex",
    "OracleInstance",
    "OracleResult",
    "ParseError",
    "RowNotNormalized",
    "SCORE_KINDS",
    "ScoreSpec",
    "ShapeMismatch",
    "SynthData",
    "SynthSpec",
    "allocation_objective",
    "as_dataset",
    "build_correctness",
    "build_policy",
    "classify_batch",
    "compute_risks",
    "default_prior",
    "default_spec",
    "generate",
    "gibbs_epsilons",
    "iter_classify",
    "jitter_matrix",
    "load_manifest",
    "load_policy",
    "measure_budget",
    "oracle_curve",
    "oracle_exact",
    "predict_matrix",
    "save_policy",
    "score_matrix",
    "sequential_rates",
    "single_head_rate",
    "solve_allocation",
    "threshold_for_rate",
    "write_dataset",
]
