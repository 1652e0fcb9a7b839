"""The tau-leaping backend's entry point and the backend selector.

The exact engines pay one vectorised step per jump-chain *event*, so their
cost grows linearly in the event count — consensus from ``n`` individuals
takes ``O(n)`` events, which caps practical populations around ``n ~ 10^4``.
Tau leaping bundles many reactions into one Poisson leap, so the paper's
asymptotic claims (``O(log^2 n)`` versus ``sqrt(n)`` thresholds) can be
observed at ``n = 10^6`` and beyond.

:func:`run_tau_sweep_ensemble` hands every member, ``lv2`` included, to
:func:`repro.scenario.engine.run_scenario_members_tau`.  That module holds
the leap (Cao et al.'s bounded relative change over the scenario's
reaction tables), the exact steps of the replicas it parks once their
opinion population falls below
:data:`~repro.scenario.engine.SCENARIO_TAU_TAIL_POPULATION`, and the RNG
consumption contract: leaps on each member's step stream, parked replicas
on its tail stream, and a member's results equal to its one-member call.
Tau results are seed-deterministic but agree with the exact engine only
statistically, not sample by sample.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import InvalidConfigurationError
from repro.lv.ensemble import LVEnsembleResult, SweepMember, _member_root_seeds
from repro.rng import SeedLike

__all__ = [
    "BACKENDS",
    "DEFAULT_TAU_EPSILON",
    "DEFAULT_TAU_POPULATION",
    "resolve_backend",
    "run_tau_sweep_ensemble",
]

#: Selectable simulation backends: ``"exact"`` (the lock-step jump-chain
#: engine), ``"tau"`` (this module), and ``"auto"`` (tau at or above
#: :data:`DEFAULT_TAU_POPULATION` total population, exact below).
BACKENDS = ("exact", "tau", "auto")

#: Bounded relative-propensity-change parameter of the tau-selection rule.
#: Smaller values take shorter, more accurate leaps; 0.03 is the standard
#: literature default and keeps the statistical-agreement tests comfortably
#: inside the shared tolerances.
DEFAULT_TAU_EPSILON = 0.03

#: ``"auto"`` backend switch-over: configurations whose total initial
#: population is at least this run on the tau backend.  Below it the exact
#: engine is already fast and stays bitwise-reproducible.
DEFAULT_TAU_POPULATION = 50_000


def resolve_backend(
    backend: str,
    population: int,
    *,
    tau_population: int = DEFAULT_TAU_POPULATION,
) -> str:
    """Resolve a backend selector to ``"exact"`` or ``"tau"``.

    ``"auto"`` chooses the tau backend when *population* (the configuration's
    total initial population) is at least *tau_population*, and the exact
    engine below it — large populations get the approximate fast path,
    small ones keep bitwise exact-reproducibility.

    Examples
    --------
    >>> resolve_backend("auto", 1_000_000)
    'tau'
    >>> resolve_backend("auto", 512)
    'exact'
    >>> resolve_backend("exact", 1_000_000)
    'exact'
    """
    if backend not in BACKENDS:
        raise InvalidConfigurationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend == "auto":
        return "tau" if population >= tau_population else "exact"
    return backend


def run_tau_sweep_ensemble(
    members: Sequence[SweepMember],
    *,
    rng: SeedLike = None,
    member_seeds: Sequence[SeedLike] | None = None,
    epsilon: float = DEFAULT_TAU_EPSILON,
    collect: str = "full",
) -> list[LVEnsembleResult]:
    """Tau-leaping twin of :func:`repro.lv.ensemble.run_sweep_ensemble`.

    Leaps every member's replicas on the generic engine's tau backend and
    returns one :class:`~repro.lv.ensemble.LVEnsembleResult` per member, in
    member order.  Seed derivation is the exact engine's (one root seed per
    member, spawning a step and a tail stream), and no member's draws or
    arithmetic depend on another's, so a member's results are
    bitwise-identical to running it alone regardless of batch composition.

    A member's event budget and its results' ``total_events`` are metered
    in estimated reaction firings (leaps) plus exact events (parked
    replicas), the same unit as the exact engine; a replica may overshoot
    its budget by at most one leap's firings.  An ``lv2`` member's result
    keeps the two-species shape (``initial_state`` an
    :class:`~repro.lv.state.LVState`, no ``finals``) and carries the
    generic engine's accounting: at ``"full"``, good and bad events by the
    spec's static split and the population maximum, and zero births,
    deaths, noise, ``min_gap_seen`` and ``hit_tie``.

    Parameters
    ----------
    members:
        Ordered configuration slices, as for the exact engine.
    rng, member_seeds:
        Batch-level root seed, or one root seed per member (the scheduler's
        reproducibility hook); identical semantics to the exact engine.
    epsilon:
        Tau-selection accuracy parameter (bounded relative propensity
        change per leap), in ``(0, 1)``.
    collect:
        Statistics level (:data:`~repro.lv.ensemble.COLLECT_MODES`).

    Examples
    --------
    >>> from repro.lv.params import LVParams
    >>> sd = LVParams.self_destructive(beta=1.0, delta=1.0, alpha=1.0)
    >>> result = run_tau_sweep_ensemble(
    ...     [SweepMember(sd, (120_000, 80_000), 4)], rng=7)[0]
    >>> bool(result.reached_consensus.all())
    True
    >>> int(result.leap_events.sum()) > 0
    True
    """
    members = list(members)
    seeds = _member_root_seeds(members, rng, member_seeds, collect)
    # Looked up at call time, so a wrap of the engine module's attribute
    # (perfbench's layer map) sees the call; that module imports this package.
    from repro.scenario.engine import run_scenario_members_tau

    return run_scenario_members_tau(members, seeds, epsilon=epsilon, collect=collect)
