"""Workload generators for the experiment harness and the examples.

The paper's experiments are parameterised by the initial population size ``n``
and the initial gap ``Δ``.  This module centralises the grids used by the
benchmark harness (so quick/full scales stay consistent across experiments)
and provides the synthetic "consortium" scenarios used by the examples, which
mimic the signal-amplification setting that motivates the paper: an upstream
noisy sub-circuit produces two populations whose difference encodes a bit, and
the LV dynamics must amplify that difference into an all-or-nothing readout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ExperimentError
from repro.lv.state import LVState
from repro.rng import SeedLike, as_generator

__all__ = [
    "population_grid",
    "gap_grid",
    "state_with_gap",
    "replica_batches",
    "ConsortiumScenario",
    "consortium_scenarios",
    "noisy_sensor_split",
]


def replica_batches(num_runs: int, batch_size: int) -> list[int]:
    """Split a replicate budget into lock-step ensemble batch sizes.

    The decomposition is a pure function of ``(num_runs, batch_size)`` — full
    batches followed by one remainder batch — so the
    :class:`~repro.experiments.scheduler.SweepScheduler` spawns identical
    per-batch seeds (and therefore produces identical results) no matter how
    the batches are packed into mega-batches or how many worker processes
    execute them.

    Examples
    --------
    >>> replica_batches(1000, 400)
    [400, 400, 200]
    >>> replica_batches(64, 256)
    [64]
    """
    if num_runs <= 0:
        raise ExperimentError(f"num_runs must be positive, got {num_runs}")
    if batch_size <= 0:
        raise ExperimentError(f"batch_size must be positive, got {batch_size}")
    full, remainder = divmod(num_runs, batch_size)
    return [batch_size] * full + ([remainder] if remainder else [])


def state_with_gap(population_size: int, gap: int) -> LVState:
    """Initial state with total *population_size* and gap adjusted for parity.

    ``LVState.from_gap`` requires the total and the gap to have the same
    parity; experiment code frequently derives gaps from formulas like
    ``round(sqrt(n))``, so this helper bumps the gap by one when needed (and
    clamps it into the admissible range ``[0, n]``).
    """
    if population_size <= 0:
        raise ExperimentError(f"population_size must be positive, got {population_size}")
    gap = max(0, min(int(gap), population_size))
    if (population_size + gap) % 2 != 0:
        gap = gap + 1 if gap + 1 <= population_size else gap - 1
    return LVState.from_gap(population_size, gap)


def population_grid(
    scale: str, *, smallest: int = 64, points_full: int = 6, points_quick: int = 3
) -> list[int]:
    """Geometric grid of population sizes for a threshold-scaling sweep.

    ``quick`` uses the first *points_quick* powers of two starting at
    *smallest*; ``full`` extends to *points_full* points.
    """
    points = points_quick if scale == "quick" else points_full
    if points <= 0 or smallest < 8:
        raise ExperimentError("population_grid needs smallest >= 8 and at least one point")
    return [smallest * (2**i) for i in range(points)]


def gap_grid(population_size: int, *, num_points: int = 8, max_fraction: float = 0.5) -> list[int]:
    """Geometric grid of gaps from 1 up to ``max_fraction · n``.

    Used by the ρ-vs-Δ curve experiments; the geometric spacing resolves the
    polylogarithmic regime (small gaps) without wasting points on the flat
    upper end of the curve.
    """
    if population_size < 8:
        raise ExperimentError(f"population_size must be at least 8, got {population_size}")
    if not 0.0 < max_fraction <= 1.0:
        raise ExperimentError(f"max_fraction must be in (0, 1], got {max_fraction}")
    largest = max(2, int(population_size * max_fraction))
    raw = np.unique(
        np.round(np.geomspace(1, largest, num=num_points)).astype(int)
    )
    return [int(value) for value in raw if 1 <= value <= population_size - 2]


@dataclass(frozen=True)
class ConsortiumScenario:
    """A named synthetic-consortium workload used by the examples.

    Attributes
    ----------
    name:
        Scenario label.
    description:
        What the scenario models.
    population_size:
        Total number of cells the upstream circuit seeds.
    expected_gap:
        Mean difference the upstream circuit produces between the two
        populations (the "signal").
    gap_noise:
        Standard deviation of the upstream difference (the "noise" the
        majority-consensus layer must tolerate).
    """

    name: str
    description: str
    population_size: int
    expected_gap: int
    gap_noise: float

    def sample_initial_state(self, rng: SeedLike = None) -> LVState:
        """Sample one initial configuration produced by the upstream circuit."""
        generator = as_generator(rng)
        gap = int(round(generator.normal(self.expected_gap, self.gap_noise)))
        gap = max(-(self.population_size - 2), min(self.population_size - 2, gap))
        if (self.population_size + gap) % 2 != 0:
            gap += 1 if gap >= 0 else -1
        majority_first = gap >= 0
        state = LVState.from_gap(self.population_size, abs(gap))
        if majority_first:
            return state
        return LVState(state.x1, state.x0)


def consortium_scenarios() -> list[ConsortiumScenario]:
    """The three consortium workloads used by the example scripts."""
    return [
        ConsortiumScenario(
            name="strong-sensor",
            description=(
                "A well-separated upstream sensor: the signal is much larger than "
                "its noise, so even a modest amplifier succeeds."
            ),
            population_size=512,
            expected_gap=96,
            gap_noise=12.0,
        ),
        ConsortiumScenario(
            name="weak-sensor",
            description=(
                "A weak upstream sensor: the mean difference is a few dozen cells, "
                "comparable to the paper's polylogarithmic threshold but far below "
                "the sqrt(n) threshold of non-self-destructive amplifiers."
            ),
            population_size=512,
            expected_gap=28,
            gap_noise=8.0,
        ),
        ConsortiumScenario(
            name="borderline-sensor",
            description=(
                "A borderline sensor whose output difference is only a handful of "
                "cells; neither mechanism amplifies it reliably, illustrating the "
                "lower bounds."
            ),
            population_size=512,
            expected_gap=4,
            gap_noise=3.0,
        ),
    ]


def noisy_sensor_split(
    population_size: int,
    signal_gap: int,
    noise_std: float,
    *,
    rng: SeedLike = None,
) -> LVState:
    """Sample an initial configuration from a noisy upstream sensor.

    A convenience wrapper used by the examples: the majority species receives
    ``(n + g)/2`` cells where ``g ~ Normal(signal_gap, noise_std)`` truncated
    to keep both populations non-empty.
    """
    scenario = ConsortiumScenario(
        name="ad-hoc",
        description="ad-hoc sensor split",
        population_size=population_size,
        expected_gap=signal_gap,
        gap_noise=noise_std,
    )
    return scenario.sample_initial_state(rng=rng)
