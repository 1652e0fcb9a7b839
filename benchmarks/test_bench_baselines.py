"""Benchmark `T1R4`: the δ = 0 prior-work models (Cho et al., Andaur et al.).

Regenerates the comparison between the self-destructive growth model of Cho et
al. (which, per the paper's Theorem 14, already succeeds at polylogarithmic
gaps) and the bounded-growth non-self-destructive model of Andaur et al.
(which needs gaps of order √(n log n)).
"""

from __future__ import annotations


def test_table1_row4_delta_zero_models(run_registered_experiment):
    result = run_registered_experiment("T1R4")
    assert result.rows
    assert result.shape_matches_paper, result.render_text()
