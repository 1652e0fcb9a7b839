"""Nice single-species chains (Section 4 of the paper).

A birth–death chain is *nice* if there exist constants ``C, D > 0`` such that
``p(n) ≤ C / n`` and ``q(n) ≥ D`` for all ``n > 0``.  For nice chains the
paper shows (Lemmas 5–8):

* the expected extinction time is ``Θ(n)`` and ``O(n)`` with high probability,
* the expected number of births before extinction is ``O(log n)`` and
  ``O(log² n)`` with high probability.

This module provides

* :func:`certify_nice` — numerically certify the nice-chain constants of a
  chain over a state range,
* :func:`lv_dominating_birth_death` — construct the particular nice chain
  used to dominate competitive LV systems (Section 5.2):
  ``p(m) = ϑ / (α m + ϑ)`` and ``q(m) = α_min / (α + 2ϑ)`` with ``ϑ = β + δ``,
* :func:`simulate_extinction` — Monte-Carlo measurement of ``E(n)`` and
  ``B(n)`` used by the `FIG-BAD` experiment and the property tests, with
  all runs advanced together by the lock-step chain runner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chains.birth_death import BirthDeathChain
from repro.exceptions import ModelError
from repro.rng import SeedLike, spawn_generators

__all__ = [
    "NiceChainCertificate",
    "certify_nice",
    "lv_dominating_birth_death",
    "simulate_extinction",
    "ExtinctionStatistics",
]


@dataclass(frozen=True)
class NiceChainCertificate:
    """Numerical certificate that a chain satisfies the nice-chain conditions.

    Attributes
    ----------
    birth_constant:
        Smallest ``C`` such that ``p(n) ≤ C / n`` for all checked ``n``, i.e.
        ``max_n n·p(n)``.
    death_constant:
        Largest ``D`` such that ``q(n) ≥ D`` for all checked ``n``, i.e.
        ``min_n q(n)``.
    checked_up_to:
        Largest state at which the conditions were evaluated.
    is_nice:
        Whether both constants are strictly positive and finite (``D > 0``).
    """

    birth_constant: float
    death_constant: float
    checked_up_to: int
    is_nice: bool


def certify_nice(chain: BirthDeathChain, *, max_state: int = 10_000) -> NiceChainCertificate:
    """Evaluate the nice-chain conditions of *chain* on ``1..max_state``.

    This is a finite check, not a proof; it reports the empirical constants
    ``C = max n·p(n)`` and ``D = min q(n)`` over the examined range.  All
    chains constructed by :func:`lv_dominating_birth_death` satisfy the
    conditions for every state, which the unit tests verify symbolically for
    spot values and via this certificate for a wide range.
    """
    if max_state < 1:
        raise ValueError(f"max_state must be at least 1, got {max_state}")
    states = np.arange(1, max_state + 1)
    births = np.array([chain.birth_probability(int(n)) for n in states])
    deaths = np.array([chain.death_probability(int(n)) for n in states])
    birth_constant = float(np.max(states * births))
    death_constant = float(np.min(deaths))
    return NiceChainCertificate(
        birth_constant=birth_constant,
        death_constant=death_constant,
        checked_up_to=int(max_state),
        is_nice=death_constant > 0.0 and np.isfinite(birth_constant),
    )


def lv_dominating_birth_death(
    *,
    beta: float,
    delta: float,
    alpha0: float,
    alpha1: float,
) -> BirthDeathChain:
    """Construct the nice dominating chain for a competitive LV system.

    Following Section 5.2 of the paper, for a two-species LV chain with
    ``γ = 0`` and ``α_min = min(α₀, α₁) > 0`` the dominating birth–death
    chain is defined by

    .. math::

        p(m) = \\frac{ϑ}{α m + ϑ}, \\qquad q(m) = \\frac{α_{min}}{α + 2ϑ},

    with ``ϑ = β + δ`` and ``α = α₀ + α₁``, and ``p(0) = q(0) = 0``.

    Raises
    ------
    ModelError
        If ``α_min = 0`` (the construction requires interspecific competition)
        or any rate is negative.

    Notes
    -----
    The extinction time of this chain is ``Θ(n)`` (Lemma 5), but the hidden
    constant grows *exponentially* in ``ϑ / α_min``: for states below roughly
    ``ϑ/α`` the birth probability exceeds the death probability, so the chain
    has to escape an uphill stretch of that width before it can die out.
    Simulation-based measurements (``simulate_extinction``) should therefore
    use rate choices with ``α_min`` comparable to ``ϑ`` — e.g. β = δ = 0.25
    and α₀ = α₁ = 1 — unless the exponential constant is itself the object of
    study.  The asymptotic statements of the paper are unaffected by the
    choice.
    """
    for name, value in (("beta", beta), ("delta", delta), ("alpha0", alpha0), ("alpha1", alpha1)):
        if value < 0:
            raise ModelError(f"rate {name} must be non-negative, got {value}")
    alpha_min = min(alpha0, alpha1)
    if alpha_min <= 0:
        raise ModelError(
            "the dominating-chain construction requires alpha_min > 0 "
            f"(got alpha0={alpha0}, alpha1={alpha1})"
        )
    theta = beta + delta
    alpha = alpha0 + alpha1

    def birth_probability(m: int) -> float:
        if m <= 0:
            return 0.0
        if theta == 0.0:
            return 0.0
        return theta / (alpha * m + theta)

    def death_probability(m: int) -> float:
        if m <= 0:
            return 0.0
        return alpha_min / (alpha + 2.0 * theta)

    return BirthDeathChain(
        birth_probability,
        death_probability,
        name=f"LV dominating chain (beta={beta}, delta={delta}, alpha={alpha})",
    )


@dataclass(frozen=True)
class ExtinctionStatistics:
    """Aggregated Monte-Carlo statistics of nice-chain absorption runs.

    Attributes
    ----------
    initial_state:
        Common starting state ``n`` of all runs.
    num_runs:
        Number of independent trajectories.
    mean_extinction_time, max_extinction_time:
        Sample mean and maximum of ``E(n)``.
    mean_births, max_births:
        Sample mean and maximum of ``B(n)``.
    mean_max_state:
        Mean of the largest state visited (used to check the "never much above
        ``n + O(log² n)``" step of Lemma 8).
    """

    initial_state: int
    num_runs: int
    mean_extinction_time: float
    max_extinction_time: int
    mean_births: float
    max_births: int
    mean_max_state: float


def simulate_extinction(
    chain: BirthDeathChain,
    initial_state: int,
    *,
    num_runs: int,
    rng: SeedLike = None,
    max_steps: int = 50_000_000,
) -> ExtinctionStatistics:
    """Estimate extinction-time and birth-count statistics by simulation.

    Used by the `FIG-BAD` experiment to check Lemma 5 (``E[E(n)] = Θ(n)``) and
    Lemmas 6–7 (``E[B(n)] = O(log n)``, ``B(n) = O(log² n)`` whp).

    Run ``i`` uses ``spawn_generators(rng, num_runs)[i]``, and all runs advance
    together through :meth:`BirthDeathChain.simulate_runs_to_absorption`, so
    each summary equals ``chain.simulate_to_absorption`` on that generator.
    """
    if num_runs <= 0:
        raise ValueError(f"num_runs must be positive, got {num_runs}")
    summaries = chain.simulate_runs_to_absorption(
        initial_state, spawn_generators(rng, num_runs), max_steps=max_steps
    )
    times = np.array([s.extinction_time for s in summaries], dtype=float)
    births = np.array([s.births for s in summaries], dtype=float)
    peaks = np.array([s.max_state for s in summaries], dtype=float)
    return ExtinctionStatistics(
        initial_state=int(initial_state),
        num_runs=int(num_runs),
        mean_extinction_time=float(times.mean()),
        max_extinction_time=int(times.max()),
        mean_births=float(births.mean()),
        max_births=int(births.max()),
        mean_max_state=float(peaks.mean()),
    )
