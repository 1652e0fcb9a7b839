"""Reproduction of "Majority consensus thresholds in competitive Lotka–Volterra populations".

The :mod:`repro` package implements the discrete, stochastic two-species
Lotka–Volterra models of Függer, Nowak and Rybicki (PODC 2024) together with
the machinery needed to reproduce the paper's results: fast exact and
tau-leaping simulators for the two-species jump chain and its k-species
scenario generalisation, single-species birth–death and dominating chains,
Monte-Carlo and exact majority-consensus analysis, baseline models from
prior work, and the experiment harness regenerating every row of the paper's
Table 1.

Quickstart
----------
>>> from repro import LVParams, LVState, estimate_majority_probability
>>> params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
>>> estimate = estimate_majority_probability(params, LVState(70, 30), num_runs=100, rng=0)
>>> estimate.majority_probability > 0.8
True

See ``README.md`` for the architecture overview, ``DESIGN.md`` for the
per-experiment index, and ``EXPERIMENTS.md`` for paper-vs-measured results.
"""

from repro._version import __version__
from repro.exceptions import (
    ReproError,
    ModelError,
    InvalidConfigurationError,
    SimulationError,
    BudgetExceededError,
    AbsorptionError,
    EstimationError,
    ThresholdSearchError,
    ExperimentError,
    StoreError,
)
from repro.rng import as_generator, spawn_generators, spawn_seeds, stable_seed
from repro.chains import (
    BirthDeathChain,
    certify_nice,
    lv_dominating_birth_death,
    simulate_extinction,
    check_domination,
    PseudoCoupling,
    compare_domination,
    exact_majority_probability,
)
from repro.lv import (
    CompetitionMechanism,
    LVParams,
    LVState,
    LVJumpChainSimulator,
    DeterministicLV,
    classify_regime,
    Table1Row,
)
from repro.experiments import SweepScheduler
from repro.store import ExperimentStore
from repro.consensus import (
    estimate_majority_probability,
    find_threshold,
    ThresholdSearch,
    predicted_threshold,
    high_probability_target,
    proportional_win_probability,
    applies_proportional_rule,
    decompose_noise,
)

__all__ = [
    "__version__",
    # Exceptions
    "ReproError",
    "ModelError",
    "InvalidConfigurationError",
    "SimulationError",
    "BudgetExceededError",
    "AbsorptionError",
    "EstimationError",
    "ThresholdSearchError",
    "ExperimentError",
    "StoreError",
    # RNG
    "as_generator",
    "spawn_generators",
    "spawn_seeds",
    "stable_seed",
    # Chains
    "BirthDeathChain",
    "certify_nice",
    "lv_dominating_birth_death",
    "simulate_extinction",
    "check_domination",
    "PseudoCoupling",
    "compare_domination",
    "exact_majority_probability",
    # LV models
    "CompetitionMechanism",
    "LVParams",
    "LVState",
    "LVJumpChainSimulator",
    "DeterministicLV",
    "classify_regime",
    "Table1Row",
    # Experiment harness
    "SweepScheduler",
    # Result store
    "ExperimentStore",
    # Consensus analysis
    "estimate_majority_probability",
    "find_threshold",
    "ThresholdSearch",
    "predicted_threshold",
    "high_probability_target",
    "proportional_win_probability",
    "applies_proportional_rule",
    "decompose_noise",
]
