"""Scenario-engine experiments: SCEN-KOP and SCEN-CAT.

These two experiments exercise the generic :mod:`repro.scenario` stack the
same way the Table-1 rows exercise the two-species default: every replicate
batch goes through the process-wide
:class:`~repro.experiments.scheduler.SweepScheduler` as
:class:`~repro.experiments.sweep.SweepTask` grids, so chunk keys, journaling
and resume all see the scenario fingerprints.  Both experiments read only
outcomes and event totals, so both of their legs (exact and tau) run at the
engine's ``"win"`` statistics level.

``SCEN-KOP``
    k-opinion consensus (``opinion3`` / ``opinion4``): the paper's
    majority-consensus shape should generalise — the initial plurality
    opinion wins with probability that increases with its initial lead and
    clearly exceeds the ``1/k`` neutral baseline.  The grid runs on the
    exact backend; an extra leg runs a large-population configuration on
    the tau backend (leaping actually engages).

``SCEN-CAT``
    Two opinions plus an inert catalyst whose count enters the
    interspecific rates through the spec's non-mass-action override slot
    (``alpha_eff = alpha + k_lig * n_C``).  More catalyst means competition
    dominates the birth/death churn, so the mean number of events to
    consensus should fall monotonically with the catalyst count.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import ExperimentResult
from repro.experiments.scheduler import get_default_scheduler
from repro.experiments.sweep import SweepTask
from repro.lv.ensemble import LVEnsembleResult
from repro.lv.params import LVParams
from repro.rng import stable_seed

__all__ = ["run_scen_kop", "run_scen_cat"]

#: Shared rates for the k-opinion grids (unit rates, as in Table 1).
_KOP_BETA = 1.0
_KOP_DELTA = 1.0
_KOP_ALPHA = 1.0

#: Catalysis rates: a deliberately small baseline ``alpha`` so the
#: catalyst-driven affine boost dominates the effective competition rate.
_CAT_BETA = 0.3
_CAT_DELTA = 0.3
_CAT_ALPHA = 0.05


def _opinion_state(k: int, total: int, gap: int) -> tuple[int, ...]:
    """Initial state with opinion 0 leading every minority by ``gap``.

    The ``total - gap`` non-lead individuals split evenly across all ``k``
    opinions; choose ``total`` and ``gap`` with ``(total - gap) % k == 0``
    so the lead is exactly ``gap``.
    """
    minority = (total - gap) // k
    lead = total - (k - 1) * minority
    return (lead,) + (minority,) * (k - 1)


def _win_stats(result: LVEnsembleResult) -> tuple[float, float, float]:
    """(consensus fraction, majority win rate, mean events to consensus)."""
    consensus = float(result.reached_consensus.mean())
    win_rate = float(result.majority_consensus.mean())
    times = result.consensus_times
    mean_events = float(np.nanmean(times)) if np.isfinite(times).any() else float("nan")
    return consensus, win_rate, mean_events


def _weakly_monotone(values: list[float], *, direction: int, tolerance: float) -> bool:
    """True when *values* move in *direction* (+1 up, -1 down) modulo noise."""
    return all(
        direction * (after - before) >= -tolerance
        for before, after in zip(values, values[1:])
    )


def run_scen_kop(scale: str = "quick", seed: int = 0) -> ExperimentResult:
    """k-opinion consensus: plurality wins, more so at larger initial leads."""
    params = LVParams.self_destructive(beta=_KOP_BETA, delta=_KOP_DELTA, alpha=_KOP_ALPHA)
    num_runs = 160 if scale == "quick" else 600
    tau_runs = 24 if scale == "quick" else 64
    max_events = 100_000
    # (total - gap) divisible by k keeps the constructed lead exact.
    grids = {3: (90, (3, 9, 21)), 4: (88, (4, 12, 24))}

    scheduler = get_default_scheduler()
    tasks = [
        SweepTask(
            params=params,
            initial_state=_opinion_state(k, total, gap),
            num_runs=num_runs,
            seed=stable_seed("scen-kop", k, gap, seed),
            max_events=max_events,
            backend="exact",
            scenario=f"opinion{k}",
        )
        for k, (total, gaps) in grids.items()
        for gap in gaps
    ]
    results = scheduler.run_sweep(tasks, collect="win")

    rows: list[dict[str, object]] = []
    win_rates: dict[int, list[float]] = {k: [] for k in grids}
    consensus_ok = True
    for task, result in zip(tasks, results):
        k = len(task.counts)
        consensus, win_rate, mean_events = _win_stats(result)
        gap = task.counts[0] - task.counts[1]
        rows.append(
            {
                "k": k,
                "total": sum(task.counts),
                "gap": gap,
                "backend": "exact",
                "consensus": round(consensus, 4),
                "majority win rate": round(win_rate, 4),
                "mean events": round(mean_events, 1),
            }
        )
        win_rates[k].append(win_rate)
        consensus_ok = consensus_ok and consensus == 1.0

    # Tau leg: population large enough that leaping actually engages before
    # the exact-endgame handoff.
    tau_task = SweepTask(
        params=params,
        initial_state=_opinion_state(3, 2560, 352),
        num_runs=tau_runs,
        seed=stable_seed("scen-kop", "tau", seed),
        max_events=2_000_000,
        backend="tau",
        scenario="opinion3",
    )
    (tau_result,) = scheduler.run_sweep([tau_task], collect="win")
    tau_consensus, tau_win, tau_events = _win_stats(tau_result)
    leaped = tau_result.leap_events is not None and int(tau_result.leap_events.sum()) > 0
    rows.append(
        {
            "k": 3,
            "total": 2560,
            "gap": 352,
            "backend": "tau",
            "consensus": round(tau_consensus, 4),
            "majority win rate": round(tau_win, 4),
            "mean events": round(tau_events, 1),
        }
    )

    monotone_ok = all(
        _weakly_monotone(win_rates[k], direction=+1, tolerance=0.08) for k in grids
    )
    beats_uniform = all(win_rates[k][-1] > 1.0 / k + 0.15 for k in grids)
    tau_ok = tau_consensus >= 0.95 and tau_win > 0.5 and leaped
    shape = consensus_ok and monotone_ok and beats_uniform and tau_ok

    findings = [
        "every exact replica reached consensus: "
        f"{'yes' if consensus_ok else 'NO'}",
        "plurality win rate rises with the initial lead and beats the 1/k "
        "baseline at the largest lead: "
        + ", ".join(
            f"k={k}: {rates[0]:.3f} -> {rates[-1]:.3f} (1/k = {1.0 / k:.3f})"
            for k, rates in win_rates.items()
        ),
        f"tau backend leaps ({'yes' if leaped else 'NO'}) and agrees on the "
        f"outcome (consensus {tau_consensus:.2f}, win rate {tau_win:.2f})",
    ]
    return ExperimentResult(
        identifier="SCEN-KOP",
        title="k-opinion consensus through the generic scenario engine",
        paper_claim=(
            "The majority-consensus shape generalises beyond two species: the "
            "initial plurality opinion wins with probability increasing in its "
            "lead and above the 1/k neutral baseline (Section 8 outlook)."
        ),
        scale=scale,
        seed=seed,
        parameters={
            "beta": _KOP_BETA,
            "delta": _KOP_DELTA,
            "alpha": _KOP_ALPHA,
            "runs per config": num_runs,
            "tau runs": tau_runs,
        },
        rows=rows,
        findings=findings,
        shape_matches_paper=shape,
    )


def run_scen_cat(scale: str = "quick", seed: int = 0) -> ExperimentResult:
    """Catalysis: consensus needs fewer events at higher catalyst counts."""
    params = LVParams.self_destructive(beta=_CAT_BETA, delta=_CAT_DELTA, alpha=_CAT_ALPHA)
    num_runs = 200 if scale == "quick" else 600
    tau_runs = 24 if scale == "quick" else 64
    catalysts = (0, 50, 200) if scale == "quick" else (0, 25, 50, 100, 200, 400)
    opinions = (60, 40)

    scheduler = get_default_scheduler()
    tasks = [
        SweepTask(
            params=params,
            initial_state=opinions + (n_cat,),
            num_runs=num_runs,
            seed=stable_seed("scen-cat", n_cat, seed),
            max_events=50_000,
            backend="exact",
            scenario="catalysis",
        )
        for n_cat in catalysts
    ]
    results = scheduler.run_sweep(tasks, collect="win")

    rows: list[dict[str, object]] = []
    mean_events: list[float] = []
    consensus_ok = True
    for task, result in zip(tasks, results):
        consensus, win_rate, events = _win_stats(result)
        rows.append(
            {
                "catalyst count": task.counts[2],
                "backend": "exact",
                "consensus": round(consensus, 4),
                "majority win rate": round(win_rate, 4),
                "mean events": round(events, 1),
            }
        )
        mean_events.append(events)
        consensus_ok = consensus_ok and consensus == 1.0

    # Tau leg at a population large enough to leap, with a heavy catalyst
    # load so the override slot matters inside the leap selection too.
    tau_task = SweepTask(
        params=params,
        initial_state=(1500, 1000, 400),
        num_runs=tau_runs,
        seed=stable_seed("scen-cat", "tau", seed),
        max_events=2_000_000,
        backend="tau",
        scenario="catalysis",
    )
    (tau_result,) = scheduler.run_sweep([tau_task], collect="win")
    tau_consensus, tau_win, tau_events = _win_stats(tau_result)
    leaped = tau_result.leap_events is not None and int(tau_result.leap_events.sum()) > 0
    rows.append(
        {
            "catalyst count": 400,
            "backend": "tau",
            "consensus": round(tau_consensus, 4),
            "majority win rate": round(tau_win, 4),
            "mean events": round(tau_events, 1),
        }
    )

    # The catalyst multiplies competition only, so the churn-to-progress
    # ratio — hence events to consensus — must fall as the count grows.
    decreasing = _weakly_monotone(
        mean_events, direction=-1, tolerance=0.05 * mean_events[0]
    )
    big_drop = mean_events[-1] < 0.7 * mean_events[0]
    tau_ok = tau_consensus >= 0.95 and tau_win > 0.5 and leaped
    shape = consensus_ok and decreasing and big_drop and tau_ok

    findings = [
        f"mean events to consensus falls with catalyst count: "
        f"{mean_events[0]:.0f} -> {mean_events[-1]:.0f} "
        f"({'monotone' if decreasing else 'NOT monotone'})",
        "every exact replica reached consensus: "
        f"{'yes' if consensus_ok else 'NO'}",
        f"tau backend leaps ({'yes' if leaped else 'NO'}) under the affine "
        f"rates (consensus {tau_consensus:.2f}, win rate {tau_win:.2f})",
    ]
    return ExperimentResult(
        identifier="SCEN-CAT",
        title="Catalyst-modulated competition via the non-mass-action override",
        paper_claim=(
            "Raising the competition rate relative to the individual rates "
            "speeds consensus; here the rate is steered by an inert catalyst "
            "count through an affine (k_unlig + k_lig * n_cat) law."
        ),
        scale=scale,
        seed=seed,
        parameters={
            "beta": _CAT_BETA,
            "delta": _CAT_DELTA,
            "alpha": _CAT_ALPHA,
            "opinions": opinions,
            "runs per config": num_runs,
            "tau runs": tau_runs,
        },
        rows=rows,
        findings=findings,
        shape_matches_paper=shape,
    )
