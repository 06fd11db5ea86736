"""Arrival-rate sweep grids for the paper's figures.

Every figure plots the minimized ``T'`` against the total generic rate
``lambda'``.  The paper draws each curve up to (just short of) its
group's saturation point; when several groups share one figure the
x-axis must be common, so the shared grid stops short of the *smallest*
saturation point among the groups.  :func:`shared_sweep` encodes that
convention.

Solving a group over such a grid is :func:`repro.solve_sweep`, which
warm-starts each point from the previous point's converged multiplier.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.exceptions import ParameterError
from ..core.server import BladeServerGroup

__all__ = ["sweep_rates", "shared_sweep"]


def sweep_rates(
    group: BladeServerGroup,
    points: int = 25,
    lo_fraction: float = 0.02,
    hi_fraction: float = 0.95,
) -> np.ndarray:
    """Evenly spaced ``lambda'`` grid inside one group's feasible range.

    Parameters
    ----------
    group:
        The server group whose saturation point bounds the sweep.
    points:
        Number of grid points (>= 2).
    lo_fraction, hi_fraction:
        Sweep endpoints as fractions of ``lambda'_max``; must satisfy
        ``0 < lo < hi < 1`` (the curve diverges at 1).
    """
    _check(points, lo_fraction, hi_fraction)
    cap = group.max_generic_rate
    return np.linspace(lo_fraction * cap, hi_fraction * cap, points)


def shared_sweep(
    groups: Sequence[BladeServerGroup],
    points: int = 25,
    lo_fraction: float = 0.02,
    hi_fraction: float = 0.95,
) -> np.ndarray:
    """Common ``lambda'`` grid across several groups (one figure's x-axis).

    The upper end is ``hi_fraction`` of the *minimum* saturation point
    over the groups, so every curve in the figure is defined at every
    grid point.
    """
    if not groups:
        raise ParameterError("shared_sweep needs at least one group")
    _check(points, lo_fraction, hi_fraction)
    cap = min(g.max_generic_rate for g in groups)
    return np.linspace(lo_fraction * cap, hi_fraction * cap, points)


def _check(points: int, lo: float, hi: float) -> None:
    if points < 2:
        raise ParameterError(f"points must be >= 2, got {points}")
    if not (0.0 < lo < hi < 1.0):
        raise ParameterError(
            f"need 0 < lo_fraction < hi_fraction < 1, got {lo}, {hi}"
        )
