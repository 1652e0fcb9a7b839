"""Shared checks on the results of registered experiments."""

from __future__ import annotations

import math

from repro.experiments.config import ExperimentResult

__all__ = ["assert_rows_have_no_nan"]


def assert_rows_have_no_nan(result: ExperimentResult) -> None:
    """Fail when any row value is a float NaN.

    An experiment that runs at the engine's ``"win"`` statistics level gets
    ``NaN`` in every accounting field of its estimates.  A row holding NaN
    means the experiment read a field that its level never collected.
    """
    missing = [
        (index, column)
        for index, row in enumerate(result.rows)
        for column, value in row.items()
        if isinstance(value, float) and math.isnan(value)
    ]
    assert not missing, f"{result.identifier}: NaN row values at {missing}"
