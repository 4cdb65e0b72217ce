"""Quality-of-result metric, baseline recipe, and reward normalization.

The optimization objective is an area-delay proxy: AND-node count times
logic depth. Rewards compare a synthesized result against the expert
baseline recipe applied to the same circuit and are clipped to [-1, +1].
"""

from __future__ import annotations

from .aig import Aig, stats
from .transforms import RESYN2, apply_recipe


def qor(aig: Aig) -> float:
    s = stats(aig)
    return float(s.node_count * s.depth)


def baseline_qor(aig: Aig) -> float:
    final, _ = apply_recipe(aig, RESYN2)
    return qor(final)


def reward(final: float, baseline: float) -> float:
    """Normalized, clipped improvement over the baseline.

    1 - adp/adp_baseline when adp < 2 x adp_baseline, -1 otherwise; a
    degenerate zero baseline yields 0 (no improvement possible).
    """
    if baseline <= 0.0:
        return 0.0
    value = 1.0 - final / baseline if final < 2.0 * baseline else -1.0
    return min(1.0, max(-1.0, value))
