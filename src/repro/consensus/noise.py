"""Demographic-noise decomposition ``F = F_ind + F_comp`` (Section 1.5, Eq. 7).

The paper's central conceptual device is to split the total noise ``F(S)`` —
the amount by which the gap moved in favour of the initial minority before
consensus — into

* ``F_ind``: contributions of *individual* (birth/death) events, and
* ``F_comp``: contributions of *competitive* events.

Under self-destructive interspecific competition, competitive events never
change the gap, so ``F = F_ind`` and the total noise is polylogarithmic; under
non-self-destructive competition the ``Θ(n)`` competition events behave like a
random walk and contribute ``Θ(√n)`` noise.  The `FIG-NOISE` experiment
measures both components to exhibit this mechanism directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import EstimationError
from repro.lv.ensemble import LVEnsembleResult, SweepMember, run_sweep_ensemble
from repro.lv.params import LVParams
from repro.lv.simulator import DEFAULT_MAX_EVENTS
from repro.lv.state import LVState
from repro.rng import SeedLike

__all__ = ["NoiseDecomposition", "decompose_noise", "decomposition_from_ensemble"]


@dataclass(frozen=True)
class NoiseDecomposition:
    """Monte-Carlo summary of the two noise components.

    All statistics are taken over independent runs from the same initial
    state.  The arrays of raw per-run values are retained so that experiments
    can report distributions (quantiles) rather than just moments.

    Attributes
    ----------
    individual_noise, competitive_noise:
        Per-run values of ``F_ind`` and ``F_comp`` (positive values favour the
        initial minority).
    individual_events, competitive_events:
        Per-run counts ``I(S)`` and ``K(S)``.
    """

    params: LVParams
    initial_state: tuple[int, int]
    individual_noise: np.ndarray
    competitive_noise: np.ndarray
    individual_events: np.ndarray
    competitive_events: np.ndarray

    @property
    def num_runs(self) -> int:
        return int(self.individual_noise.size)

    @property
    def mean_individual_noise(self) -> float:
        return float(self.individual_noise.mean())

    @property
    def mean_competitive_noise(self) -> float:
        return float(self.competitive_noise.mean())

    @property
    def std_individual_noise(self) -> float:
        return float(self.individual_noise.std(ddof=0))

    @property
    def std_competitive_noise(self) -> float:
        return float(self.competitive_noise.std(ddof=0))

    @property
    def total_noise(self) -> np.ndarray:
        """Per-run total noise ``F = F_ind + F_comp``."""
        return self.individual_noise + self.competitive_noise

    def quantile(self, component: str, q: float) -> float:
        """Quantile of one component (``"individual"``, ``"competitive"``, ``"total"``)."""
        arrays = {
            "individual": self.individual_noise,
            "competitive": self.competitive_noise,
            "total": self.total_noise,
        }
        if component not in arrays:
            raise EstimationError(
                f"component must be one of {sorted(arrays)}, got {component!r}"
            )
        return float(np.quantile(arrays[component], q))

    def summary_row(self) -> dict[str, float | str]:
        """One flat summary row, convenient for table rendering."""
        return {
            "mechanism": self.params.mechanism.short_name,
            "n": sum(self.initial_state),
            "gap": abs(self.initial_state[0] - self.initial_state[1]),
            "runs": self.num_runs,
            "mean |F_ind|": float(np.abs(self.individual_noise).mean()),
            "mean |F_comp|": float(np.abs(self.competitive_noise).mean()),
            "std F_ind": self.std_individual_noise,
            "std F_comp": self.std_competitive_noise,
            "mean I(S)": float(self.individual_events.mean()),
            "mean K(S)": float(self.competitive_events.mean()),
        }


def decomposition_from_ensemble(ensemble: LVEnsembleResult) -> NoiseDecomposition:
    """Build a :class:`NoiseDecomposition` from lock-step ensemble arrays.

    Shared by :func:`decompose_noise` and the experiment harness's
    :meth:`SweepScheduler.decompose_many
    <repro.experiments.scheduler.SweepScheduler.decompose_many>`, so both
    produce the decomposition from the same per-replica accounting.  A tau
    ensemble (one with ``leap_events``) keeps no per-event accounting, so its
    per-run values are ``NaN``: not measured, as
    :func:`~repro.consensus.estimator.summarise_ensemble` reports them.
    """
    measured = ensemble.leap_events is None

    def per_run(values: np.ndarray) -> np.ndarray:
        return values.astype(float) if measured else np.full(values.shape[0], np.nan)

    return NoiseDecomposition(
        params=ensemble.params,
        initial_state=(ensemble.initial_state.x0, ensemble.initial_state.x1),
        individual_noise=per_run(ensemble.noise_individual),
        competitive_noise=per_run(ensemble.noise_competitive),
        individual_events=per_run(ensemble.individual_events),
        competitive_events=per_run(ensemble.competitive_events),
    )


def decompose_noise(
    params: LVParams,
    initial_state: LVState | tuple[int, int],
    *,
    num_runs: int = 200,
    rng: SeedLike = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> NoiseDecomposition:
    """Measure the noise decomposition by Monte-Carlo simulation.

    The replicates advance in lock-step as one member of
    :func:`~repro.lv.ensemble.run_sweep_ensemble`.  Adaptive budgets and
    sweeps of many configurations belong to
    :meth:`SweepScheduler.decompose_many
    <repro.experiments.scheduler.SweepScheduler.decompose_many>`.

    Examples
    --------
    >>> params = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    >>> decomposition = decompose_noise(params, LVState(40, 24), num_runs=50, rng=11)
    >>> bool(np.all(decomposition.competitive_noise == 0))
    True
    """
    if num_runs <= 0:
        raise EstimationError(f"num_runs must be positive, got {num_runs}")
    member = SweepMember(params, initial_state, num_runs, max_events)
    return decomposition_from_ensemble(run_sweep_ensemble([member], rng=rng)[0])
