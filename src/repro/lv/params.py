"""Rate parameterisation of the two-species Lotka–Volterra models.

The paper's models (Eqs. 1 and 2) are parameterised by

* ``beta`` — per-capita birth rate (identical for both species),
* ``delta`` — per-capita death rate (identical for both species),
* ``alpha0``, ``alpha1`` — interspecific interference rates (species *i* is
  the aggressor at rate ``alpha_i``),
* ``gamma0``, ``gamma1`` — intraspecific interference rates, and
* the competition *mechanism*: self-destructive (both participants of a
  competitive interaction die) or non-self-destructive (only the victim dies).

The paper calls a system *neutral* when both species have identical rate
parameters (``alpha0 == alpha1`` and ``gamma0 == gamma1``); reproduction rates
are shared by construction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.exceptions import ModelError

__all__ = ["CompetitionMechanism", "LVParams", "RATE_FIELDS"]

#: Order of the rate constants in :meth:`LVParams.rate_vector` and
#: :meth:`LVParams.stack` — the contract shared with the vectorized
#: heterogeneous ensemble engine in :mod:`repro.lv.ensemble`.
RATE_FIELDS = ("beta", "delta", "alpha0", "alpha1", "gamma0", "gamma1")


class CompetitionMechanism(enum.Enum):
    """How a pairwise interference-competition event resolves.

    * ``SELF_DESTRUCTIVE`` — both participating individuals die (Eq. 1);
      biologically, e.g. bacteriocin release via lysis.
    * ``NON_SELF_DESTRUCTIVE`` — only the encountered individual dies (Eq. 2);
      e.g. secreted bacteriocins or contact-dependent inhibition.
    """

    SELF_DESTRUCTIVE = "self-destructive"
    NON_SELF_DESTRUCTIVE = "non-self-destructive"

    @property
    def short_name(self) -> str:
        """Abbreviation used in tables: ``"SD"`` or ``"NSD"``."""
        return "SD" if self is CompetitionMechanism.SELF_DESTRUCTIVE else "NSD"


@dataclass(frozen=True)
class LVParams:
    """Rates and mechanism of a two-species competitive LV system.

    Examples
    --------
    >>> params = LVParams.neutral(beta=1.0, delta=1.0, alpha=1.0)
    >>> params.is_neutral
    True
    >>> params.alpha
    1.0
    >>> params.theta
    2.0
    """

    beta: float
    delta: float
    alpha0: float
    alpha1: float
    gamma0: float = 0.0
    gamma1: float = 0.0
    mechanism: CompetitionMechanism = CompetitionMechanism.SELF_DESTRUCTIVE

    def __post_init__(self) -> None:
        for name in ("beta", "delta", "alpha0", "alpha1", "gamma0", "gamma1"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ModelError(f"rate {name} must be a number, got {value!r}")
            if not math.isfinite(value) or value < 0:
                raise ModelError(
                    f"rate {name} must be a finite non-negative number, got {value}"
                )
            object.__setattr__(self, name, float(value))
        if not isinstance(self.mechanism, CompetitionMechanism):
            raise ModelError(
                "mechanism must be a CompetitionMechanism, got "
                f"{type(self.mechanism).__name__}"
            )
        if self.total_rate == 0.0:
            raise ModelError("at least one rate must be positive")

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def neutral(
        cls,
        *,
        beta: float,
        delta: float,
        alpha: float,
        gamma: float = 0.0,
        mechanism: CompetitionMechanism = CompetitionMechanism.SELF_DESTRUCTIVE,
    ) -> "LVParams":
        """Neutral system with per-species rates ``alpha/2`` and ``gamma/2``.

        The paper writes ``α = α₀ + α₁`` and ``γ = γ₀ + γ₁``; this constructor
        takes the *totals* and splits them evenly so that the system is
        neutral (identical species).
        """
        return cls(
            beta=beta,
            delta=delta,
            alpha0=alpha / 2.0,
            alpha1=alpha / 2.0,
            gamma0=gamma / 2.0,
            gamma1=gamma / 2.0,
            mechanism=mechanism,
        )

    @classmethod
    def self_destructive(
        cls, *, beta: float, delta: float, alpha: float, gamma: float = 0.0
    ) -> "LVParams":
        """Neutral self-destructive system (Eq. 1) with total rates α and γ."""
        return cls.neutral(
            beta=beta,
            delta=delta,
            alpha=alpha,
            gamma=gamma,
            mechanism=CompetitionMechanism.SELF_DESTRUCTIVE,
        )

    @classmethod
    def non_self_destructive(
        cls, *, beta: float, delta: float, alpha: float, gamma: float = 0.0
    ) -> "LVParams":
        """Neutral non-self-destructive system (Eq. 2) with total rates α and γ."""
        return cls.neutral(
            beta=beta,
            delta=delta,
            alpha=alpha,
            gamma=gamma,
            mechanism=CompetitionMechanism.NON_SELF_DESTRUCTIVE,
        )

    def with_mechanism(self, mechanism: CompetitionMechanism) -> "LVParams":
        """Copy of these parameters with a different competition mechanism."""
        return replace(self, mechanism=mechanism)

    def with_rates(self, **rates: float) -> "LVParams":
        """Copy of these parameters with some rates replaced."""
        return replace(self, **rates)

    # ------------------------------------------------------------------
    # Derived quantities (paper notation)
    # ------------------------------------------------------------------
    @property
    def alpha(self) -> float:
        """Total interspecific rate ``α = α₀ + α₁``."""
        return self.alpha0 + self.alpha1

    @property
    def gamma(self) -> float:
        """Total intraspecific rate ``γ = γ₀ + γ₁``."""
        return self.gamma0 + self.gamma1

    @property
    def theta(self) -> float:
        """Individual-event rate ``ϑ = β + δ`` (Section 5.2)."""
        return self.beta + self.delta

    @property
    def alpha_min(self) -> float:
        """``α_min = min(α₀, α₁)``, the constant in the dominating chain."""
        return min(self.alpha0, self.alpha1)

    @property
    def total_rate(self) -> float:
        return self.beta + self.delta + self.alpha + self.gamma

    @property
    def is_neutral(self) -> bool:
        """Whether both species have identical rate parameters."""
        return self.alpha0 == self.alpha1 and self.gamma0 == self.gamma1

    @property
    def is_self_destructive(self) -> bool:
        return self.mechanism is CompetitionMechanism.SELF_DESTRUCTIVE

    @property
    def has_interspecific(self) -> bool:
        return self.alpha > 0.0

    @property
    def has_intraspecific(self) -> bool:
        return self.gamma > 0.0

    @property
    def has_individual_events(self) -> bool:
        """Whether birth or death reactions exist (``ϑ > 0``)."""
        return self.theta > 0.0

    @property
    def intrinsic_growth_rate(self) -> float:
        """``r = β − δ``, the intrinsic growth rate of the deterministic model."""
        return self.beta - self.delta

    # ------------------------------------------------------------------
    # Propensities (paper, Section 1.3)
    # ------------------------------------------------------------------
    def propensities(self, x0: int, x1: int) -> dict[str, float]:
        """Propensity of each reaction class in configuration ``(x0, x1)``.

        Keys: ``birth0``, ``birth1``, ``death0``, ``death1``, ``inter0``
        (species 0 is the aggressor, rate α₀), ``inter1``, ``intra0``,
        ``intra1``.
        """
        if x0 < 0 or x1 < 0:
            raise ModelError(f"species counts must be non-negative, got ({x0}, {x1})")
        return {
            "birth0": self.beta * x0,
            "birth1": self.beta * x1,
            "death0": self.delta * x0,
            "death1": self.delta * x1,
            "inter0": self.alpha0 * x0 * x1,
            "inter1": self.alpha1 * x0 * x1,
            "intra0": self.gamma0 * x0 * (x0 - 1) / 2.0,
            "intra1": self.gamma1 * x1 * (x1 - 1) / 2.0,
        }

    def total_propensity(self, x0: int, x1: int) -> float:
        """Total propensity ``φ(x0, x1)`` of the configuration."""
        return sum(self.propensities(x0, x1).values())

    # ------------------------------------------------------------------
    # Dense packing (heterogeneous ensemble engine)
    # ------------------------------------------------------------------
    def rate_vector(self) -> np.ndarray:
        """The six rate constants as a float array in :data:`RATE_FIELDS` order.

        Examples
        --------
        >>> LVParams.neutral(beta=1.0, delta=0.5, alpha=1.0).rate_vector()
        array([1. , 0.5, 0.5, 0.5, 0. , 0. ])
        """
        return np.array([getattr(self, name) for name in RATE_FIELDS], dtype=np.float64)

    @staticmethod
    def stack(params: "Sequence[LVParams]") -> tuple[np.ndarray, np.ndarray]:
        """Pack parameter sets into dense arrays for vectorized evaluation.

        Returns ``(rates, self_destructive)`` where ``rates`` has shape
        ``(C, 6)`` with columns in :data:`RATE_FIELDS` order and
        ``self_destructive`` is a boolean array of length ``C``.  This is the
        layout the heterogeneous lock-step ensemble consumes; keeping the
        packing here means the rate-column contract lives next to the rate
        definitions.
        """
        if not params:
            raise ModelError("cannot stack an empty sequence of LVParams")
        rates = np.stack([p.rate_vector() for p in params])
        mechanisms = np.array([p.is_self_destructive for p in params], dtype=bool)
        return rates, mechanisms

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"LV[{self.mechanism.short_name}] beta={self.beta:g} delta={self.delta:g} "
            f"alpha=({self.alpha0:g},{self.alpha1:g}) gamma=({self.gamma0:g},{self.gamma1:g})"
        )
