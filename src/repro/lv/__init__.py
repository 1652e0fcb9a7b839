"""Two-species competitive Lotka–Volterra models (the paper's model class).

This subpackage contains the discrete, stochastic two-species LV models of
Section 1.3 and the deterministic ODE of Section 2.1:

* :class:`~repro.lv.params.LVParams` — the rate parameterisation
  (β, δ, α₀, α₁, γ₀, γ₁) plus the competition mechanism,
* :class:`~repro.lv.state.LVState` — a two-species configuration with gap,
  majority, and consensus helpers,
* :class:`~repro.lv.simulator.LVJumpChainSimulator` — a fast, specialised
  jump-chain simulator for the two-species system with per-event
  classification and gap/noise accounting,
* :func:`~repro.lv.ensemble.run_sweep_ensemble` — the exact lock-step
  engine: it advances a batch of :class:`~repro.lv.ensemble.SweepMember`
  configurations' jump chains together, with the same event accounting
  (the workhorse of the experiments; one configuration is one member),
* :func:`~repro.lv.tau.run_tau_sweep_ensemble` — the approximate
  large-``n`` backend: vectorized tau-leaping with a batched exact endgame
  (selectable via ``backend="exact"|"tau"|"auto"`` throughout the
  experiment stack),
* :mod:`~repro.lv.ode` — the deterministic competitive LV ODE (Eq. 4),
* :mod:`~repro.lv.regimes` — classification of parameter choices into the
  rows of Table 1.
"""

from repro.lv.params import CompetitionMechanism, LVParams
from repro.lv.state import LVState
from repro.lv.simulator import LVJumpChainSimulator, LVRunResult, StepRecord
from repro.lv.ensemble import LVEnsembleResult, SweepMember, run_sweep_ensemble
from repro.lv.tau import (
    BACKENDS,
    DEFAULT_TAU_EPSILON,
    DEFAULT_TAU_POPULATION,
    resolve_backend,
    run_tau_sweep_ensemble,
)
from repro.lv.ode import DeterministicLV, ODEResult
from repro.lv.regimes import Table1Row, classify_regime

__all__ = [
    "BACKENDS",
    "DEFAULT_TAU_EPSILON",
    "DEFAULT_TAU_POPULATION",
    "resolve_backend",
    "run_tau_sweep_ensemble",
    "SweepMember",
    "run_sweep_ensemble",
    "CompetitionMechanism",
    "LVParams",
    "LVState",
    "LVJumpChainSimulator",
    "LVRunResult",
    "StepRecord",
    "LVEnsembleResult",
    "DeterministicLV",
    "ODEResult",
    "Table1Row",
    "classify_regime",
]
