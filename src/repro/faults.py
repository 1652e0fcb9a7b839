"""Deterministic fault injection for chaos-testing the execution substrate.

The paper's subject is consensus that stays correct under disturbance; this
module brings the same discipline to the harness that reproduces it.  A
:class:`FaultPlan` describes *which* faults to inject (worker crashes, task
hangs, torn journal appends, corrupted chunk payloads) and the
execution/store layers carry the injection points, so the
fault-tolerance machinery in :mod:`repro.experiments.scheduler` and
:mod:`repro.store` can be exercised — in unit tests and in CI chaos runs —
without patching internals or relying on real crashes.

Determinism contract
--------------------
Whether a fault fires at a given injection point is a **pure function** of
``(plan seed, fault kind, injection token, attempt number)``:

* the *token* is a stable identity of the work unit — the chunk's RNG seed
  for execution faults, the chunk's content-address key for journal faults —
  so the decision is identical in every process that executes the unit
  (worker pools included: the plan travels via the ``REPRO_FAULT_PLAN``
  environment variable, which forked/spawned workers inherit);
* the *attempt* number makes faults transient by construction: a spec with
  ``attempts=1`` (the default) fires on a unit's first execution and never
  on its retries, so a retried run always converges — the property the
  chaos suite's bitwise-identity gate relies on.

No module state is consulted by the firing decision, so there is nothing to
synchronise across processes and nothing that drifts between runs.

Usage
-----
Programmatic (in-process, e.g. tests)::

    from repro.faults import FaultPlan, FaultSpec, injected_faults

    plan = FaultPlan(seed=7, crash=FaultSpec(rate=1.0))
    with injected_faults(plan):
        scheduler.run_sweep(tasks)   # every chunk crashes once, then succeeds

Environment (CI chaos runs; reaches worker processes)::

    REPRO_FAULT_PLAN='{"seed":7,"crash":{"rate":0.2},"hang":{"rate":0.1,"delay":2.0}}' \
        python -m repro run T1R2 --jobs 2 --task-timeout 1 --max-retries 3

An installed plan takes precedence over the environment variable.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator

from repro.exceptions import ReproError, StoreError

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "InjectedWorkerCrash",
    "InjectedTornWrite",
    "get_fault_plan",
    "install_fault_plan",
    "injected_faults",
    "inject_execution_faults",
    "journal_fault_action",
]

#: Injectable fault kinds, in the order execution-side faults are evaluated.
FAULT_KINDS = ("crash", "hang", "torn_append", "corrupt_chunk")


class InjectedWorkerCrash(Exception):
    """An injected worker crash (stands in for a worker process dying).

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: to the retry
    layer it must look like the unexpected failure it simulates.
    """


class InjectedTornWrite(StoreError):
    """An injected torn journal append (record cut mid-write, as by a kill)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind's firing rule.

    Parameters
    ----------
    rate:
        Probability (per injection point) that the fault fires, decided by a
        deterministic hash — ``1.0`` fires at every eligible point, ``0.0``
        (the default) never fires.
    attempts:
        Fire only while the unit's attempt number is below this, so retries
        eventually succeed.  The default ``1`` makes every fault transient
        (first try fails, first retry succeeds).
    delay:
        ``hang`` only: seconds the injected hang sleeps.
    fatal:
        ``crash`` only: when true and the injection point is inside a worker
        process, the worker dies with ``os._exit`` — producing a *genuine*
        ``BrokenProcessPool`` in the parent.  Outside a worker process the
        crash degrades to raising :class:`InjectedWorkerCrash` (a fatal
        inline crash would kill the test process itself).
    """

    rate: float = 0.0
    attempts: int = 1
    delay: float = 0.0
    fatal: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ReproError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.attempts < 1:
            raise ReproError(f"fault attempts must be at least 1, got {self.attempts}")
        if self.delay < 0.0:
            raise ReproError(f"fault delay must be non-negative, got {self.delay}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults to inject across a run.

    Examples
    --------
    >>> plan = FaultPlan(seed=1, crash=FaultSpec(rate=1.0))
    >>> plan.should_fire("crash", token=42, attempt=0)
    True
    >>> plan.should_fire("crash", token=42, attempt=1)  # retries succeed
    False
    >>> FaultPlan.from_json(plan.to_json()) == plan
    True
    """

    seed: int = 0
    crash: FaultSpec = field(default_factory=FaultSpec)
    hang: FaultSpec = field(default_factory=FaultSpec)
    torn_append: FaultSpec = field(default_factory=FaultSpec)
    corrupt_chunk: FaultSpec = field(default_factory=FaultSpec)

    # ------------------------------------------------------------------
    # Firing decisions
    # ------------------------------------------------------------------
    def _uniform(self, kind: str, token: Any) -> float:
        """Deterministic uniform in [0, 1) keyed by (plan seed, kind, token)."""
        raw = f"{self.seed}:{kind}:{token}".encode("utf-8")
        digest = hashlib.sha256(raw).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def should_fire(self, kind: str, token: Any, attempt: int = 0) -> bool:
        """Whether fault *kind* fires at this injection point (pure function)."""
        spec: FaultSpec = getattr(self, kind)
        if spec.rate <= 0.0 or attempt >= spec.attempts:
            return False
        return self._uniform(kind, token) < spec.rate

    def fire_execution(self, token: Any, attempt: int) -> None:
        """Raise/sleep per the plan at one chunk-execution injection point.

        Evaluation order: ``crash``, then ``hang``.
        """
        if self.should_fire("crash", token, attempt):
            if self.crash.fatal and multiprocessing.parent_process() is not None:
                os._exit(3)  # genuine worker death -> BrokenProcessPool upstream
            raise InjectedWorkerCrash(
                f"injected worker crash (fault plan, token={token}, attempt={attempt})"
            )
        if self.should_fire("hang", token, attempt):
            time.sleep(self.hang.delay)

    def journal_action(self, key: str, attempt: int) -> str | None:
        """Journal-append injection: ``"torn"``, ``"corrupt"``, or ``None``.

        *attempt* counts prior appearances of *key* in the journal (records
        on disk plus appends this session), so the re-append that follows a
        detected torn/corrupt record is clean and recovery converges.
        """
        if self.should_fire("torn_append", key, attempt):
            return "torn"
        if self.should_fire("corrupt_chunk", key, attempt):
            return "corrupt"
        return None

    # ------------------------------------------------------------------
    # Serialisation (the REPRO_FAULT_PLAN wire format)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Compact JSON encoding accepted by :meth:`from_json`."""
        payload: dict[str, Any] = {"seed": self.seed}
        for kind in FAULT_KINDS:
            spec: FaultSpec = getattr(self, kind)
            if spec.rate > 0.0:
                payload[kind] = {
                    name: value
                    for name, value in asdict(spec).items()
                    if value != getattr(FaultSpec, name)
                }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        """Parse a plan from its JSON encoding (``REPRO_FAULT_PLAN``)."""
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ReproError(f"invalid fault plan JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ReproError(f"fault plan must be a JSON object, got {type(payload).__name__}")
        known = {"seed", *FAULT_KINDS}
        unknown = set(payload) - known
        if unknown:
            raise ReproError(
                f"unknown fault plan field(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs: dict[str, Any] = {"seed": int(payload.get("seed", 0))}
        for kind in known - {"seed"}:
            if kind in payload:
                spec = payload[kind]
                if not isinstance(spec, dict):
                    raise ReproError(f"fault plan field {kind!r} must be an object")
                try:
                    kwargs[kind] = FaultSpec(**spec)
                except TypeError as error:
                    raise ReproError(f"invalid fault spec for {kind!r}: {error}") from error
        return cls(**kwargs)


# ----------------------------------------------------------------------
# The ambient plan (installed > environment > none)
# ----------------------------------------------------------------------
_INSTALLED: FaultPlan | None = None
#: Cache of the last parsed ``REPRO_FAULT_PLAN`` value, keyed by the raw
#: string so tests that monkeypatch the variable are picked up immediately.
_ENV_CACHE: tuple[str, FaultPlan] | None = None


def get_fault_plan() -> FaultPlan | None:
    """The active fault plan, or ``None`` when no faults are scheduled.

    A plan installed with :func:`install_fault_plan` wins; otherwise the
    ``REPRO_FAULT_PLAN`` environment variable (inline JSON) is consulted —
    that path is what reaches worker processes, which inherit the parent's
    environment but not its module state.
    """
    if _INSTALLED is not None:
        return _INSTALLED
    raw = os.environ.get("REPRO_FAULT_PLAN")
    if not raw:
        return None
    global _ENV_CACHE
    if _ENV_CACHE is None or _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, FaultPlan.from_json(raw))
    return _ENV_CACHE[1]


def install_fault_plan(plan: FaultPlan | None) -> None:
    """Install (or clear, with ``None``) the process-local fault plan."""
    global _INSTALLED
    _INSTALLED = plan


@contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope *plan* as the active fault plan (tests' preferred entry point)."""
    previous = _INSTALLED
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        install_fault_plan(previous)


# ----------------------------------------------------------------------
# Injection points (called by the execution/store layers)
# ----------------------------------------------------------------------
def inject_execution_faults(token: Any, attempt: int) -> None:
    """Chunk-execution injection point (no-op without an active plan)."""
    plan = get_fault_plan()
    if plan is not None:
        plan.fire_execution(token, attempt)


def journal_fault_action(key: str, attempt: int) -> str | None:
    """Journal-append injection point (no-op without an active plan)."""
    plan = get_fault_plan()
    if plan is None:
        return None
    return plan.journal_action(key, attempt)
