"""Majority-consensus analysis for stochastic Lotka–Volterra systems.

This is the core of the reproduction: given a parameterised LV system and an
initial configuration, estimate (or compute exactly) the probability ``ρ(S)``
of reaching *majority consensus* — the event that the initial majority species
is the sole survivor — together with the consensus time and the event/noise
accounting the paper's theorems are phrased in.

* :mod:`~repro.consensus.gap` — the gap process and per-run summaries,
* :mod:`~repro.consensus.estimator` — Monte-Carlo estimation of ρ(S), T(S),
  I(S), J(S), K(S) with confidence intervals, for one configuration at a time
  (sweeps, adaptive budgets and caching run through
  :class:`~repro.experiments.scheduler.SweepScheduler`),
* :mod:`~repro.consensus.threshold` — empirical majority-consensus thresholds
  Ψ(n) (smallest gap Δ with ρ ≥ 1 − 1/n),
* :mod:`~repro.consensus.theory` — the paper's threshold predictions
  (Table 1) as computable reference curves,
* :mod:`~repro.consensus.exact` — closed-form results (ρ = a/(a+b), the
  no-competition case) used for validation,
* :mod:`~repro.consensus.noise` — the demographic-noise decomposition
  ``F = F_ind + F_comp`` of Eq. (3)/(7).
"""

from repro.consensus.gap import GapTrace, gap_trace_from_run
from repro.consensus.estimator import ConsensusEstimate, estimate_majority_probability
from repro.consensus.threshold import (
    ThresholdEstimate,
    ThresholdSearch,
    find_threshold,
)
from repro.consensus.theory import (
    TheoreticalThreshold,
    predicted_threshold,
    predicted_threshold_curve,
    high_probability_target,
)
from repro.consensus.exact import (
    proportional_win_probability,
    applies_proportional_rule,
    no_competition_win_probability,
)
from repro.consensus.noise import NoiseDecomposition, decompose_noise

__all__ = [
    "GapTrace",
    "gap_trace_from_run",
    "ConsensusEstimate",
    "estimate_majority_probability",
    "ThresholdEstimate",
    "ThresholdSearch",
    "find_threshold",
    "TheoreticalThreshold",
    "predicted_threshold",
    "predicted_threshold_curve",
    "high_probability_target",
    "proportional_win_probability",
    "applies_proportional_rule",
    "no_competition_win_probability",
    "NoiseDecomposition",
    "decompose_noise",
]
