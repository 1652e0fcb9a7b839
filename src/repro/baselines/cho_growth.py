"""The δ = 0 growth model of Cho et al. (Distributed Computing 2021).

Cho et al. analysed majority consensus in a two-species chemical reaction
network with *continual population growth*: every individual reproduces at
per-capita rate β, there are no individual deaths, and the two species engage
in self-destructive interspecific interference competition at rate α,

.. math::

    X_i \\xrightarrow{β} 2 X_i, \\qquad X_i + X_{1-i} \\xrightarrow{α_i} ∅.

This is exactly the special case ``δ = 0``, ``γ = 0`` of the paper's
self-destructive Lotka–Volterra model (Table 1, row 4).  Cho et al. proved
that an initial gap of ``Ω(√n log n)`` suffices for majority consensus with
high probability; the paper improves this exponentially to ``O(log² n)`` (and
the improvement applies to this very model, since the new analysis allows
``δ = 0``).  The class below wraps the LV machinery with the δ = 0 restriction
and carries both threshold predictions so the benchmark can display the gap
between the old and new bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.consensus.estimator import ConsensusEstimate, estimate_majority_probability
from repro.exceptions import ModelError
from repro.lv.params import LVParams
from repro.lv.state import LVState
from repro.rng import SeedLike

__all__ = ["ChoGrowthModel"]


@dataclass(frozen=True)
class ChoGrowthModel:
    """Two-species growth model with self-destructive competition and no deaths.

    Parameters
    ----------
    beta:
        Per-capita birth rate (must be positive; the model has no deaths).
    alpha:
        Total interspecific interference rate ``α = α₀ + α₁``.

    Examples
    --------
    >>> model = ChoGrowthModel(beta=1.0, alpha=1.0)
    >>> estimate = model.estimate(LVState(40, 20), num_runs=50, rng=2)
    >>> estimate.majority_probability > 0.8
    True
    """

    beta: float
    alpha: float

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ModelError(f"beta must be positive in the Cho et al. model, got {self.beta}")
        if self.alpha <= 0:
            raise ModelError(f"alpha must be positive, got {self.alpha}")

    @property
    def params(self) -> LVParams:
        """The equivalent Lotka–Volterra parameterisation (δ = 0, γ = 0, SD)."""
        return LVParams.self_destructive(beta=self.beta, delta=0.0, alpha=self.alpha)

    # ------------------------------------------------------------------
    # Threshold predictions
    # ------------------------------------------------------------------
    @staticmethod
    def original_threshold_shape(population_size: int) -> float:
        """The ``√(n log n)`` gap shape proven sufficient by Cho et al."""
        if population_size < 2:
            raise ModelError(f"population_size must be at least 2, got {population_size}")
        return math.sqrt(population_size * math.log(population_size))

    @staticmethod
    def improved_threshold_shape(population_size: int) -> float:
        """The ``log² n`` gap shape proven sufficient by the paper (Theorem 14)."""
        if population_size < 2:
            raise ModelError(f"population_size must be at least 2, got {population_size}")
        return math.log(population_size) ** 2

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def estimate(
        self,
        initial_state: LVState | tuple[int, int],
        *,
        num_runs: int = 200,
        rng: SeedLike = None,
        max_events: int = 20_000_000,
    ) -> ConsensusEstimate:
        """Monte-Carlo estimate of the majority-consensus probability."""
        return estimate_majority_probability(
            self.params, initial_state, num_runs=num_runs, rng=rng, max_events=max_events
        )
