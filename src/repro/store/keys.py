"""Canonical hashing: the keying/invalidation contract of the result store.

Every store entry is addressed by a SHA-256 digest of a *canonical
configuration payload* — a plain-JSON dictionary with sorted keys and no
incidental formatting — so two runs that would produce bitwise-identical
results always produce identical keys, and any input that can change a
result changes the key.

Two granularities share the scheme:

* **chunk keys** (:func:`chunk_key`) address one executed simulation chunk —
  a ``(params, initial counts, replicate count, seed, event budget, resolved
  backend, collect mode)`` unit, the same unit the sweep engine's
  determinism contract covers (a member's result is bitwise-identical to
  running it alone, independent of ``jobs`` / ``sweep_batch`` packing /
  ``compaction_fraction``, all of which are therefore deliberately
  *excluded* from the key), and
* **run keys** (:func:`run_key`) address one completed experiment run —
  ``(experiment id, canonical config hash, seed root, result-schema
  version)`` per the store's layered-keying contract, where the config hash
  (:func:`config_hash`) covers the scale plus every scheduler knob that can
  change results (:func:`scheduler_fingerprint`).

Invalidation is purely key-based: nothing is ever rewritten in place.  A
schema bump (:data:`RESULT_SCHEMA_VERSION`), a changed rate, seed, budget,
backend, or precision target yields a different key, so stale entries are
simply never hit again.  Conservative keying (e.g. ``tau_epsilon`` is kept
in exact-backend run keys) can cause spurious misses, never false hits.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.lv.params import LVParams

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "canonical_json",
    "digest",
    "params_payload",
    "chunk_key",
    "config_hash",
    "run_key",
    "scheduler_fingerprint",
]

#: Version of the serialised result layout (:mod:`repro.store.serialize`).
#: Part of every key, so bumping it invalidates the whole store without any
#: deletion pass: old entries simply stop matching.
#: Version 2: scenario-engine generalisation — chunk keys fold in the
#: scenario fingerprint, payloads carry ``scenario``/``initial_counts``/
#: ``finals`` for generic-scenario ensembles, and ``counts`` may have more
#: than two species.
#: Version 3: T1R4's Andaur legs run as the ``resource`` scenario family
#: (new draws, so new rows), and generic-engine chunks at ``"full"`` carry
#: the population maximum their numpy loops used to drop.
#: Version 4: the generic engine finishes every replica in its vectorised
#: loop (the scalar tail and its tail-stream draws are gone), sums each tau
#: leap left to right over the reactions, and keeps ``good_events`` and
#: ``bad_noncompetitive_events`` at zero at ``"win"``; lv2 chunks keep
#: their bits under the new keys.
#: Version 5: the tau backend finishes its parked lv2 replicas on the exact
#: engine (its lock-step loop on the step stream, then its scalar tail)
#: instead of one scalar run each on the tail stream, so tau replicas that
#: leap before they park read different uniforms; exact and generic chunks
#: keep their bits under the new keys.
#: Version 6: the tau backend runs lv2 members on the generic engine (its
#: leap, parking below an opinion population of 512, and exact steps on the
#: tail stream), so lv2 tau chunks change; they keep the two-species
#: layout.  Exact and generic chunks keep their bits under the new keys.
RESULT_SCHEMA_VERSION = 6


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of *payload*."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def params_payload(params: LVParams) -> dict[str, Any]:
    """Canonical JSON payload of an :class:`~repro.lv.params.LVParams`."""
    return {
        "beta": params.beta,
        "delta": params.delta,
        "alpha0": params.alpha0,
        "alpha1": params.alpha1,
        "gamma0": params.gamma0,
        "gamma1": params.gamma1,
        "mechanism": params.mechanism.value,
    }


def chunk_key(
    *,
    params: LVParams,
    counts: tuple[int, ...],
    num_replicates: int,
    seed: int,
    max_events: int,
    backend: str,
    tau_epsilon: float,
    collect: str = "full",
    scenario: str | None = None,
) -> str:
    """Content address of one simulation chunk.

    *backend* must already be resolved to the engine that will execute the
    chunk (``"exact"`` or ``"tau"`` — never ``"auto"``), because that is
    what determines the bit stream.  ``tau_epsilon`` only enters the key for
    tau chunks; the exact engine ignores it, and keying it would split
    identical results across keys.

    *scenario* names the registered scenario family the chunk runs under
    (``None`` means the two-species default).  The key folds in the
    **scenario fingerprint** — the content hash of the fully lowered
    reaction tables for ``(family, params)``
    (:func:`repro.scenario.registry.scenario_fingerprint`) — rather than
    just the family name, so any change to how a family lowers parameters
    into tables invalidates exactly that family's chunks.
    """
    from repro.scenario.registry import scenario_fingerprint
    from repro.scenario.spec import DEFAULT_SCENARIO

    payload: dict[str, Any] = {
        "schema": RESULT_SCHEMA_VERSION,
        "params": params_payload(params),
        "counts": [int(count) for count in counts],
        "num_replicates": int(num_replicates),
        "seed": int(seed),
        "max_events": int(max_events),
        "backend": backend,
        "collect": collect,
        "scenario": scenario_fingerprint(scenario or DEFAULT_SCENARIO, params),
    }
    if backend == "tau":
        payload["tau_epsilon"] = float(tau_epsilon)
    return digest(payload)


def scheduler_fingerprint(scheduler: Any) -> dict[str, Any]:
    """The scheduler knobs that can change experiment *results*.

    Includes ``batch_size`` (fixed-budget chunk decomposition derives
    per-batch seeds from it), ``wave_quantum`` (the adaptive chunk ladder),
    the backend selector, ``tau_epsilon``, and the precision target.
    Excludes ``jobs`` and ``sweep_batch``: results are
    bitwise-independent of them by the sweep engine's contract,
    so runs executed with different parallelism still share cache entries.
    """
    precision = getattr(scheduler, "precision", None)
    return {
        "batch_size": scheduler.batch_size,
        "wave_quantum": getattr(scheduler, "wave_quantum", None),
        "backend": scheduler.backend,
        "tau_epsilon": scheduler.tau_epsilon,
        "precision": None
        if precision is None
        else {
            "ci_half_width": precision.ci_half_width,
            "relative_error": precision.relative_error,
            "confidence": precision.confidence,
            "min_replicates": precision.min_replicates,
            "max_replicates": precision.max_replicates,
        },
    }


def config_hash(scale: str, fingerprint: Mapping[str, Any]) -> str:
    """Canonical config hash of one experiment invocation."""
    return digest({"scale": scale, "scheduler": dict(fingerprint)})


def run_key(
    *,
    experiment_id: str,
    config: str,
    seed_root: int,
    schema_version: int = RESULT_SCHEMA_VERSION,
) -> str:
    """Store key of one completed experiment run.

    The layered keying contract: ``(experiment id, canonical config hash,
    seed root, result-schema version)``.
    """
    return digest(
        {
            "experiment": experiment_id,
            "config": config,
            "seed_root": int(seed_root),
            "schema": int(schema_version),
        }
    )
