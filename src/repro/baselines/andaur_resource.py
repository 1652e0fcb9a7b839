"""The bounded-growth resource-consumer model of Andaur et al. (2021).

Two opinions grow by consuming a shared resource ``R`` (births
``X_i + R → 2 X_i``), so the population never exceeds the carrying capacity
``K = x_0 + x_1 + r``; competition is non-self-destructive interference (the
victim returns to ``R``) and there are no deaths (δ = 0).  The model runs as
the ``resource`` scenario family on the generic engine: with
``r = K − x_0 − x_1`` and birth constant β/K, the birth propensity
``(β/K)·x_i·r`` is the logistic law ``β·x_i·(1 − (x_0 + x_1)/K)``, and two
encounter reactions at α/2 each pick either victim with probability 1/2.
"""

from __future__ import annotations

from repro.consensus.estimator import ConsensusEstimate, summarise_ensemble
from repro.exceptions import ModelError
from repro.lv.ensemble import SweepMember, run_sweep_ensemble
from repro.lv.params import LVParams
from repro.lv.state import LVState
from repro.rng import SeedLike

__all__ = ["AndaurResourceModel"]


class AndaurResourceModel:
    """Bounded-growth, non-self-destructive interference model (Andaur et al.).

    Parameters
    ----------
    beta:
        Maximum per-capita growth rate (realised rate shrinks as the total
        population approaches the carrying capacity).
    alpha:
        Total interspecific interference rate.
    carrying_capacity:
        Resource-imposed carrying capacity ``K``; the growth propensity
        vanishes when the total population reaches ``K``.

    Examples
    --------
    >>> model = AndaurResourceModel(beta=1.0, alpha=1.0, carrying_capacity=400)
    >>> model.counts(LVState(60, 30))
    (60, 30, 310)
    >>> model.estimate(LVState(60, 30), num_runs=20, rng=0).consensus_rate
    1.0
    """

    def __init__(self, *, beta: float, alpha: float, carrying_capacity: int):
        if beta < 0 or alpha <= 0:
            raise ModelError(
                f"beta must be non-negative and alpha positive; got beta={beta}, alpha={alpha}"
            )
        if carrying_capacity < 2:
            raise ModelError(
                f"carrying_capacity must be at least 2, got {carrying_capacity}"
            )
        self.beta = float(beta)
        self.alpha = float(alpha)
        self.carrying_capacity = int(carrying_capacity)

    @property
    def params(self) -> LVParams:
        """The ``resource`` family's rates: births at β/K, α split evenly, NSD."""
        return LVParams.non_self_destructive(
            beta=self.beta / self.carrying_capacity, delta=0.0, alpha=self.alpha
        )

    def counts(self, initial_state: LVState | tuple[int, int]) -> tuple[int, int, int]:
        """``(x0, x1, r)``: the opinions plus the resource left, ``K − x0 − x1``."""
        x0, x1 = (
            (initial_state.x0, initial_state.x1)
            if isinstance(initial_state, LVState)
            else (int(initial_state[0]), int(initial_state[1]))
        )
        if x0 + x1 > self.carrying_capacity:
            raise ModelError(
                "initial population exceeds the carrying capacity "
                f"({x0 + x1} > {self.carrying_capacity})"
            )
        return x0, x1, self.carrying_capacity - x0 - x1

    def estimate(
        self,
        initial_state: LVState | tuple[int, int],
        *,
        num_runs: int = 200,
        rng: SeedLike = None,
        max_events: int = 20_000_000,
    ) -> ConsensusEstimate:
        """Monte-Carlo estimate of the majority-consensus probability.

        Reads only ρ and the consensus times, so it runs at ``"win"``.
        """
        if num_runs <= 0:
            raise ModelError(f"num_runs must be positive, got {num_runs}")
        member = SweepMember(
            self.params, self.counts(initial_state), num_runs, max_events, scenario="resource"
        )
        (ensemble,) = run_sweep_ensemble([member], rng=rng, collect="win")
        return summarise_ensemble(ensemble, collected="win")
