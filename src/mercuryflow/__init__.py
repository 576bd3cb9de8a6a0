"""Throughput-optimal power allocation for an energy-harvesting transmitter
over parallel Gaussian streams with arbitrary input constellations."""

from .constellations import (
    Constellation,
    bpsk,
    by_name,
    gaussian,
    pam,
)
from .errors import (
    ConvergenceError,
    InvalidInputError,
    MercuryflowError,
    SchemaError,
    TableBuildError,
    TableRangeError,
)
from .evaluation import (
    complexity_ensemble,
    dwf_solve,
    evaluate_mi,
    pbp_solve,
    run_strategy,
    sweep_energy,
)
from .offline import (
    Allocation,
    Epoch,
    RunStats,
    dwf_reference,
    fsa_solve,
    kkt_verify,
    nda_solve,
    stream_tables,
)
from .online import causal_ecc_check, detect_events, online_solve
from .scenario import Pool, Scenario, build_pools, generate, rescale_energy
from .tables import MmseTable, build_table, table_for
from .waterfill import EpochProblem, EpochSolution, classical_wf, power_at_level, solve_epoch

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Constellation",
    "ConvergenceError",
    "Epoch",
    "EpochProblem",
    "EpochSolution",
    "InvalidInputError",
    "MercuryflowError",
    "MmseTable",
    "Pool",
    "RunStats",
    "Scenario",
    "SchemaError",
    "TableBuildError",
    "TableRangeError",
    "bpsk",
    "build_pools",
    "build_table",
    "by_name",
    "causal_ecc_check",
    "classical_wf",
    "complexity_ensemble",
    "detect_events",
    "dwf_reference",
    "dwf_solve",
    "evaluate_mi",
    "fsa_solve",
    "gaussian",
    "generate",
    "kkt_verify",
    "nda_solve",
    "online_solve",
    "pam",
    "pbp_solve",
    "power_at_level",
    "rescale_energy",
    "run_strategy",
    "solve_epoch",
    "stream_tables",
    "sweep_energy",
    "table_for",
]
