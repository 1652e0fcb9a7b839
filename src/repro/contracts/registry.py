"""The declared RNG consumption-order registry (rule RC104's ground truth).

The sweep engine's bitwise contract — fused == solo, independent of
``jobs`` / ``sweep_batch`` / packing — holds because every draw
from a member's **step** and **tail** streams happens at a declared place in
a declared order (see the consumption-order prose in
:mod:`repro.lv.ensemble` and DESIGN.md).  This module is the machine-checked
half of that prose: every function that draws from, forwards, or spawns a
member stream must be listed here, in its documented position in the
consumption order.  The linter (rule ``RC104``) flags any stream-touching
function missing from this registry, and any registry entry whose function
no longer touches streams (``RC105``), so the registry and the code cannot
drift apart silently.

Adding an entry is a *contract change*: it belongs in the same review as
the prose update in DESIGN.md, which is exactly the point.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StreamConsumer", "CONSUMPTION_ORDER_REGISTRY", "registered_consumers"]


@dataclass(frozen=True)
class StreamConsumer:
    """One declared draw/forward site in the stream consumption order."""

    #: Qualified name inside its module (``Class.method`` or ``function``).
    qualname: str
    #: ``"step"``, ``"tail"``, or ``"both"``.
    stream: str
    #: Where this sits in the member's consumption order.
    role: str


#: module name -> declared consumers, in consumption order.
CONSUMPTION_ORDER_REGISTRY: dict[str, tuple[StreamConsumer, ...]] = {
    "repro.lv.ensemble": (
        StreamConsumer(
            "_MemberStreams.__init__",
            "both",
            "spawns each member's (step, tail) generator pair from the "
            "member seed — step first, tail second, members in order",
        ),
        StreamConsumer(
            "_MemberStreams.draw",
            "step",
            "the only reader of the step stream: blocked uniform draws, "
            "partition-invariant by Generator.random",
        ),
        StreamConsumer(
            "_run_lv2_members",
            "tail",
            "after the lock-step loop, hands each member's untouched tail "
            "generator to the exact-tail finisher, once, with the slots of "
            "the survivors it handed off when its active set went thin",
        ),
        StreamConsumer(
            "_finish_exact_tail",
            "tail",
            "the one lv2 exact-tail finisher (both engines, both collect "
            "levels): one scalar event-loop run per slot, in ascending "
            "slot order, each drawing a fresh 4096-uniform block at start",
        ),
    ),
    "repro.lv.tau": (
        StreamConsumer(
            "run_tau_sweep_ensemble",
            "both",
            "spawns each member's (step, tail) generator pair from the "
            "member seed, hands every lv2 step stream to the one leap loop, "
            "then every tail stream to the batched endgame",
        ),
        StreamConsumer(
            "_leap",
            "step",
            "one loop over every lv2 replica of the call; per leap, each "
            "member draws Poisson firings per rejection round, then its "
            "exact-step uniforms, from its step stream over its pending "
            "replicas in ascending order; replicas below the crossover are "
            "parked per member, in leap then ascending replica order",
        ),
        StreamConsumer(
            "_finish_parked",
            "tail",
            "batched exact endgame: the member's k-th parked replica reads "
            "tail uniform 4096*k + t at its t-th event, the block the scalar "
            "run would draw; a run past one block hands its member's later "
            "replicas, in park order, to repro.lv.ensemble._finish_exact_tail "
            "from position 4096*k",
        ),
    ),
    "repro.scenario.engine": (
        StreamConsumer(
            "run_scenario_members",
            "both",
            "spawns each member's (step, tail) pair from the caller-derived "
            "root seed and dispatches the per-member advance in member order",
        ),
        StreamConsumer(
            "_advance_member",
            "step",
            "generic lock-step phase: blocked step-stream uniforms, one per "
            "alive replica in ascending replica order",
        ),
        StreamConsumer(
            "_finish_member_tail",
            "tail",
            "generic scalar tail: surviving replicas in ascending replica "
            "order, all drawing from one shared blocked tail stream",
        ),
        StreamConsumer(
            "_run_member_tau",
            "both",
            "generic tau path: Poisson firings from the step stream, "
            "scalar endgame from the tail stream",
        ),
    ),
}


def registered_consumers(module: str) -> dict[str, StreamConsumer]:
    """The declared consumers of *module*, keyed by qualified name."""
    return {
        consumer.qualname: consumer
        for consumer in CONSUMPTION_ORDER_REGISTRY.get(module, ())
    }
