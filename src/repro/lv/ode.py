"""Deterministic competitive Lotka–Volterra dynamics (Section 2.1, Eq. 4).

For the neutral two-species case the deterministic mass-action approximation
of both stochastic models is the classical competitive LV equation

.. math::

    \\frac{d x_i}{dt} = x_i (r - α' x_{1-i} - γ' x_i),

with intrinsic growth rate ``r = β − δ``, interspecific rate ``α'`` and
intraspecific rate ``γ'``.  For the self-destructive model ``α' = α₀ + α₁``;
for the non-self-destructive model ``α' = α₀ = α₁`` (the victim of either
directed reaction is the same individual).  As the paper notes, when
``α' > γ'`` the species with the larger initial density always wins
deterministically — the model is blind to demographic noise, which is exactly
the effect the stochastic analysis quantifies (experiment `FIG-ODE`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError, SimulationError
from repro.lv.params import LVParams

__all__ = ["DeterministicLV", "ODEResult"]


@dataclass(frozen=True)
class ODEResult:
    """Result of integrating the deterministic LV equations.

    Attributes
    ----------
    times:
        Time grid of the returned trajectory.
    densities:
        Array of shape ``(len(times), 2)`` with the two species densities.
    winner:
        Index of the species that "wins" (the other dropped below the
        extinction threshold first), or ``None`` if neither did within the
        integration horizon.
    extinction_time:
        Time at which the loser crossed the extinction threshold, or ``None``.
    """

    times: np.ndarray
    densities: np.ndarray
    winner: int | None
    extinction_time: float | None

    @property
    def final_densities(self) -> tuple[float, float]:
        return (float(self.densities[-1, 0]), float(self.densities[-1, 1]))


class DeterministicLV:
    """Integrator for the deterministic competitive LV equations.

    Parameters
    ----------
    params:
        Stochastic model parameters; the deterministic rates ``r``, ``α'`` and
        ``γ'`` are derived from them as described in the module docstring.
        The system must be neutral (identical species) because Eq. (4) is
        stated for that case.
    extinction_threshold:
        Density below which a species is considered extinct.  The stochastic
        model's extinction corresponds to a count below one individual, so the
        default is 1.0.
    """

    def __init__(self, params: LVParams, *, extinction_threshold: float = 1.0):
        if not params.is_neutral:
            raise ModelError(
                "the deterministic LV equation (Eq. 4) is defined for neutral systems; "
                "got asymmetric rates"
            )
        if extinction_threshold <= 0:
            raise ModelError(
                f"extinction_threshold must be positive, got {extinction_threshold}"
            )
        self.params = params
        self.extinction_threshold = float(extinction_threshold)

    # ------------------------------------------------------------------
    # Derived deterministic rates
    # ------------------------------------------------------------------
    @property
    def growth_rate(self) -> float:
        """Intrinsic growth rate ``r = β − δ``."""
        return self.params.intrinsic_growth_rate

    @property
    def interspecific_rate(self) -> float:
        """``α'``: total α for self-destructive, per-direction α for NSD."""
        if self.params.is_self_destructive:
            return self.params.alpha
        return self.params.alpha0

    @property
    def intraspecific_rate(self) -> float:
        """``γ'``: the per-species intraspecific rate ``γ₀ = γ₁``."""
        return self.params.gamma0

    def derivative(self, _time: float, densities: np.ndarray) -> np.ndarray:
        """Right-hand side of Eq. (4)."""
        x0, x1 = densities
        r = self.growth_rate
        a = self.interspecific_rate
        g = self.intraspecific_rate
        return np.array(
            [
                x0 * (r - a * x1 - g * x0),
                x1 * (r - a * x0 - g * x1),
            ]
        )

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def integrate(
        self,
        initial_densities: tuple[float, float],
        *,
        t_max: float = 100.0,
        num_points: int = 1000,
        rtol: float = 1e-8,
        atol: float = 1e-10,
    ) -> ODEResult:
        """Integrate Eq. (4) from *initial_densities* until *t_max*.

        Integration stops early when either species density drops below the
        extinction threshold (a terminal event), which defines the
        deterministic "winner".
        """
        from scipy.integrate import solve_ivp

        x0, x1 = initial_densities
        if x0 < 0 or x1 < 0:
            raise ModelError(f"initial densities must be non-negative, got {initial_densities}")
        if t_max <= 0 or num_points < 2:
            raise ValueError("t_max must be positive and num_points at least 2")

        threshold = self.extinction_threshold

        def species0_extinct(_t, y):
            return y[0] - threshold

        def species1_extinct(_t, y):
            return y[1] - threshold

        species0_extinct.terminal = True  # type: ignore[attr-defined]
        species0_extinct.direction = -1  # type: ignore[attr-defined]
        species1_extinct.terminal = True  # type: ignore[attr-defined]
        species1_extinct.direction = -1  # type: ignore[attr-defined]

        solution = solve_ivp(
            self.derivative,
            (0.0, float(t_max)),
            np.array([float(x0), float(x1)]),
            t_eval=np.linspace(0.0, float(t_max), int(num_points)),
            events=[species0_extinct, species1_extinct],
            rtol=rtol,
            atol=atol,
            method="LSODA",
        )
        if not solution.success:
            raise SimulationError(f"ODE integration failed: {solution.message}")

        times = solution.t
        densities = solution.y.T
        winner: int | None = None
        extinction_time: float | None = None
        extinct0 = solution.t_events[0].size > 0
        extinct1 = solution.t_events[1].size > 0
        if extinct0 and (not extinct1 or solution.t_events[0][0] <= solution.t_events[1][0]):
            winner = 1
            extinction_time = float(solution.t_events[0][0])
        elif extinct1:
            winner = 0
            extinction_time = float(solution.t_events[1][0])
        return ODEResult(
            times=times,
            densities=densities,
            winner=winner,
            extinction_time=extinction_time,
        )

    def deterministic_winner(
        self, initial_densities: tuple[float, float], *, t_max: float = 1000.0
    ) -> int | None:
        """Winner predicted by the deterministic model (index 0, 1, or ``None``).

        When ``α' > γ'`` the species with the larger initial density wins for
        every positive initial gap; this method verifies it numerically.
        """
        return self.integrate(initial_densities, t_max=t_max).winner

    def coexistence_equilibrium(self) -> tuple[float, float] | None:
        """Interior equilibrium ``x0 = x1 = r / (α' + γ')`` when it exists."""
        r = self.growth_rate
        a = self.interspecific_rate
        g = self.intraspecific_rate
        if r <= 0 or a + g <= 0:
            return None
        value = r / (a + g)
        return (value, value)
