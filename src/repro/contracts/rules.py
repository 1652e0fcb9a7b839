"""Rule catalog and finding model of the determinism-contract linter.

Every rule has a stable identifier (``RC###``) that waivers, tests, CI
gates, and the JSON reporter reference.  The hundreds digit groups rules
into the three contract classes the reproduction depends on:

* ``RC1xx`` — **RNG discipline**: engine code draws randomness only through
  :mod:`repro.rng` streams, and every function that consumes a member's
  step/tail stream is declared in the consumption-order registry.
* ``RC2xx`` — **iteration-order determinism**: no directory-scan, set, or
  JSON-encoding order leaks into results or store bytes.
* ``RC3xx`` — **store-key purity**: key constructors read exactly the
  whitelisted fields and never the contract-excluded ones.
* ``RC9xx`` — waiver administration (not a contract class): waivers must
  carry a justification and must actually suppress something.

Rule identifiers are append-only: a retired rule's number is never reused.
The ``RC4xx`` class (nopython-subset checks of the native kernels) retired
with the kernels themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "RULE_CLASSES",
    "rule",
]

#: Human names of the rule classes, keyed by the hundreds digit of the ID.
RULE_CLASSES: dict[int, str] = {
    1: "rng-discipline",
    2: "iteration-order",
    3: "store-key-purity",
    9: "waiver-administration",
}


@dataclass(frozen=True)
class Rule:
    """One statically checkable determinism contract."""

    id: str
    title: str
    rationale: str

    @property
    def rule_class(self) -> str:
        """The contract class this rule belongs to (``rng-discipline``, ...)."""
        return RULE_CLASSES[int(self.id[2])]


#: The full catalog, keyed by rule ID.
RULES: dict[str, Rule] = {}


def _register(identifier: str, title: str, rationale: str) -> Rule:
    registered = Rule(identifier, title, rationale)
    RULES[identifier] = registered
    return RULES[identifier]


def rule(identifier: str) -> Rule:
    """Look up a rule by ID, raising ``KeyError`` for unknown IDs."""
    return RULES[identifier]


# ---------------------------------------------------------------------------
# RC1xx — RNG discipline
# ---------------------------------------------------------------------------
RC101 = _register(
    "RC101",
    "legacy global-state RNG call in engine code",
    "np.random.* and random.* draw from hidden global state, so results "
    "depend on import order and whatever ran before; engine code must draw "
    "only from explicitly threaded numpy Generators.",
)
RC102 = _register(
    "RC102",
    "wall-clock or OS-entropy call in engine code",
    "time.time()/datetime.now()/uuid4()/os.urandom() make results depend on "
    "when and where the code runs, which breaks bitwise resume and "
    "fused==solo equivalence.",
)
RC103 = _register(
    "RC103",
    "Generator construction outside repro.rng",
    "All Generator/SeedSequence creation must route through "
    "repro.rng.as_generator / spawn_generators / spawn_seeds so seeding "
    "policy and stream independence live in exactly one place.",
)
RC104 = _register(
    "RC104",
    "undeclared step/tail stream consumer",
    "Functions that draw from (or forward) a member's step or tail stream "
    "define the RNG consumption order that fused==solo depends on; each "
    "must be declared in repro.contracts.registry so a new draw site is a "
    "reviewed contract change, not an accident.",
)
RC105 = _register(
    "RC105",
    "stale consumption-order registry entry",
    "A registry entry naming a function that no longer consumes streams "
    "means the declared consumption order has drifted from the code.",
)

# ---------------------------------------------------------------------------
# RC2xx — iteration-order determinism
# ---------------------------------------------------------------------------
RC201 = _register(
    "RC201",
    "unsorted directory-scan iteration",
    "glob/iterdir/listdir/scandir order is filesystem-dependent; anything "
    "consuming scan results must sort them or results differ across hosts.",
)
RC202 = _register(
    "RC202",
    "set iteration in order-critical code",
    "Set iteration order varies with insertion history and hash "
    "randomisation; order-critical modules must iterate sorted sequences.",
)
RC203 = _register(
    "RC203",
    "JSON encoding without sort_keys in order-critical code",
    "json.dumps without sort_keys=True serialises dict insertion order, so "
    "byte-compared artefacts (keys, journals, merge conflict checks) would "
    "depend on construction order.",
)

# ---------------------------------------------------------------------------
# RC3xx — store-key purity
# ---------------------------------------------------------------------------
RC301 = _register(
    "RC301",
    "key constructor writes a non-whitelisted field",
    "Chunk/run keys must be built from exactly the declared field set: an "
    "undeclared field silently splits one result across addresses (or "
    "worse, aliases two different results onto one).",
)
RC302 = _register(
    "RC302",
    "key constructor references a contract-excluded field",
    "jobs / sweep_batch / compaction_fraction / the legacy engine selector "
    "are bitwise-irrelevant by the sweep engine's contract and deliberately "
    "excluded from keys; folding one in would forfeit cross-host cache "
    "hits and break journal replay equivalence.",
)

# ---------------------------------------------------------------------------
# RC9xx — waiver administration
# ---------------------------------------------------------------------------
RC901 = _register(
    "RC901",
    "waiver without justification",
    "Every `# repro: noqa-RC###` waiver must state why the contract does "
    "not apply at that line; an unjustified waiver is indistinguishable "
    "from a silenced bug.",
)
RC902 = _register(
    "RC902",
    "waiver suppresses nothing",
    "A waiver that matches no finding is stale: either the violation was "
    "fixed (delete the waiver) or the rule ID is wrong (fix it).",
)


@dataclass
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    justification: str | None = None
    symbol: str | None = field(default=None)

    @property
    def rule(self) -> Rule:
        return RULES[self.rule_id]

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"
