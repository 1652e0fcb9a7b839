"""Shared statistical-agreement tolerances for simulator-equivalence tests.

Both the single-configuration lock-step ensemble (``test_lv_ensemble.py``)
and the heterogeneous sweep engine (``test_lv_sweep_ensemble.py``) must be
statistical drop-ins for the scalar jump-chain simulator: same win
probability, same consensus-time distribution, same event accounting.  This
module centralises how two replicate collections are compared so that every
equivalence test uses the same Monte-Carlo-aware tolerances.

Tolerances are sized as ~4 standard errors at the replicate counts used by
the callers, which keeps the tests deterministic (fixed seeds) while still
failing loudly on any systematic bias.
"""

from __future__ import annotations

import numpy as np

from repro.lv.ensemble import LVEnsembleResult

__all__ = ["summary_statistics", "assert_outcomes_close", "assert_statistically_close"]

#: Attributes whose per-replica means are compared, with relative tolerances.
_MEAN_ATTRIBUTES = {
    "interspecific_events": 0.12,
    "bad_noncompetitive_events": 0.12,
    "good_events": 0.12,
}


def summary_statistics(batch) -> dict[str, float]:
    """Reduce a replicate collection to the compared summary statistics.

    *batch* is either an :class:`~repro.lv.ensemble.LVEnsembleResult` or a
    list of :class:`~repro.lv.simulator.LVRunResult`; both reduce to the same
    statistics so any two executors can be compared against each other.
    """
    if isinstance(batch, LVEnsembleResult):
        reached = batch.reached_consensus
        times = batch.total_events[reached]
        stats = {
            "num": float(batch.num_replicates),
            "win_probability": float(batch.majority_consensus.mean()),
            "mean_consensus_time": float(times.mean()) if times.size else float("nan"),
            "mean_total_events": float(batch.total_events.mean()),
            "mean_individual_events": float(batch.individual_events.mean()),
            "mean_noise_individual": float(batch.noise_individual.mean()),
            "std_noise_individual": float(batch.noise_individual.std(ddof=0)),
            "mean_noise_competitive": float(batch.noise_competitive.mean()),
        }
        for name in _MEAN_ATTRIBUTES:
            stats[f"mean_{name}"] = float(getattr(batch, name).mean())
        return stats
    times = [r.total_events for r in batch if r.reached_consensus]
    noise_ind = np.array([r.noise_individual for r in batch], dtype=float)
    stats = {
        "num": float(len(batch)),
        "win_probability": float(np.mean([r.majority_consensus for r in batch])),
        "mean_consensus_time": float(np.mean(times)) if times else float("nan"),
        "mean_total_events": float(np.mean([r.total_events for r in batch])),
        "mean_individual_events": float(np.mean([r.individual_events for r in batch])),
        "mean_noise_individual": float(noise_ind.mean()),
        "std_noise_individual": float(noise_ind.std(ddof=0)),
        "mean_noise_competitive": float(
            np.mean([r.noise_competitive for r in batch])
        ),
    }
    for name in _MEAN_ATTRIBUTES:
        stats[f"mean_{name}"] = float(np.mean([getattr(r, name) for r in batch]))
    return stats


def assert_outcomes_close(first, second, *, label: str = "") -> None:
    """Assert two replicate collections agree on their outcomes.

    Win probabilities must agree within a binomial ~4-standard-error band,
    and the mean consensus time and mean event count within 12% relative.
    These are what every backend measures; the tau backend keeps no
    per-event accounting, which :func:`assert_statistically_close` adds.
    """
    a = summary_statistics(first)
    b = summary_statistics(second)
    pooled = min(a["num"], b["num"])

    p = (a["win_probability"] + b["win_probability"]) / 2.0
    p_tolerance = max(4.0 * np.sqrt(max(p * (1.0 - p), 0.04) / pooled), 0.02)
    assert abs(a["win_probability"] - b["win_probability"]) < p_tolerance, (
        label,
        "win_probability",
        a["win_probability"],
        b["win_probability"],
    )

    for name in ("mean_consensus_time", "mean_total_events"):
        assert a[name] == pytest_approx(b[name]), (label, name, a[name], b[name])


def assert_statistically_close(first, second, *, label: str = "") -> None:
    """Assert two replicate collections tell the same statistical story.

    Their outcomes must agree (:func:`assert_outcomes_close`), the event
    accounting means within 12% relative, and the noise components within
    ~8 standard errors of the (pooled) per-replica spread.
    """
    assert_outcomes_close(first, second, label=label)
    a = summary_statistics(first)
    b = summary_statistics(second)
    pooled = min(a["num"], b["num"])

    for name in ("mean_individual_events", *(f"mean_{k}" for k in _MEAN_ATTRIBUTES)):
        tolerance = 0.12 * max(abs(a[name]), abs(b[name]), 1.0)
        assert abs(a[name] - b[name]) < tolerance, (label, name, a[name], b[name])

    noise_scale = max(a["std_noise_individual"] / np.sqrt(pooled), 0.5)
    for name in ("mean_noise_individual", "mean_noise_competitive"):
        assert abs(a[name] - b[name]) < 8.0 * noise_scale, (
            label,
            name,
            a[name],
            b[name],
        )


def pytest_approx(value: float, rel: float = 0.12):
    """A late import shim so the helper does not hard-depend on pytest."""
    import pytest

    return pytest.approx(value, rel=rel, nan_ok=True)
