"""Baseline majority-consensus models from prior work.

The paper positions its Lotka–Volterra results against several baselines
(Sections 1.1, 2.2 and Table 1).  This subpackage implements the two that
Table 1 runs, so that the experiments can compare thresholds directly.  Both
are thin front ends over the engines: validation, the rates and initial
counts they lower to, and a one-member ``estimate``.

* :mod:`~repro.baselines.cho_growth` — the δ = 0, self-destructive growth
  model analysed by Cho et al. (Table 1, row 4), an lv2 parameterisation;
* :mod:`~repro.baselines.andaur_resource` — the bounded-growth
  resource-consumer model of Andaur et al. with non-self-destructive
  interference competition, the ``resource`` scenario family.
"""

from repro.baselines.cho_growth import ChoGrowthModel
from repro.baselines.andaur_resource import AndaurResourceModel

__all__ = [
    "ChoGrowthModel",
    "AndaurResourceModel",
]
