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
            "_MemberStreams.fill",
            "both",
            "the only uniform reader of the exact steps of both engines (the "
            "lv2 lock-step loop and repro.scenario.engine's one loop): one "
            "call per step takes each (member, count) segment's next uniforms "
            "in segment order, from per-member blocks, partition-invariant "
            "by Generator.random; the stream is fixed when the streams are "
            "built: the step stream, or the tail stream for the generic tau "
            "backend's parked replicas",
        ),
        StreamConsumer(
            "_run_exact",
            "both",
            "runs the given slots to their end, from their counts and "
            "accounting so far: the lock-step loop reads each member's step "
            "stream where it stands (through _MemberStreams.fill), then each "
            "member's untouched tail generator goes to the exact-tail "
            "finisher, once, with the slots of the survivors it handed off "
            "when its active set went thin; the exact engine passes every "
            "slot, the tau backend the replicas it parked",
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
            "member seed (repro.lv.ensemble._MemberStreams), hands every lv2 "
            "step stream to the one leap loop, then both streams to "
            "repro.lv.ensemble._run_exact with the parked replicas: the "
            "lock-step loop continues each step stream where its member's "
            "leaps left it",
        ),
        StreamConsumer(
            "_leap",
            "step",
            "one loop over every lv2 replica of the call; per leap, each "
            "member draws Poisson firings per rejection round, then its "
            "exact-step uniforms, from its step stream over its pending "
            "replicas in ascending order; replicas below the crossover are "
            "parked and returned as ascending slots",
        ),
    ),
    "repro.scenario.engine": (
        StreamConsumer(
            "_run_groups",
            "both",
            "the one loop of both generic backends: spawns each member's "
            "(step, tail) pair (repro.lv.ensemble._MemberStreams, reading the "
            "tail stream on the tau backend); each pass hands the step "
            "generators to every group's leap, then draws one uniform per "
            "packed replica through one _MemberStreams.fill call, member by "
            "member, each member's replicas in ascending order",
        ),
        StreamConsumer(
            "_Group.leap",
            "step",
            "one tau pass of a group's leaping replicas: per member, one "
            "Poisson call over its leaping replicas in ascending order, then "
            "one per halving round over its rejected replicas, at most "
            "_MAX_TAU_HALVINGS rounds",
        ),
    ),
}


def registered_consumers(module: str) -> dict[str, StreamConsumer]:
    """The declared consumers of *module*, keyed by qualified name."""
    return {
        consumer.qualname: consumer
        for consumer in CONSUMPTION_ORDER_REGISTRY.get(module, ())
    }
