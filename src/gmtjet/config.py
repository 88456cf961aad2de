"""Centralized numerical tolerances and grids.

Every threshold used by the estimators and verdict rules, and every grid
that discretizes a quantifier (apertures eps, mass constants eta, Hoelder
constants lambda), lives here.  They are constants: each function reads
`DEFAULT_TOL.<field>` or `DEFAULT_GRIDS.<field>` where it uses the value,
and none takes them as arguments.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # linear algebra
    orthonormal: float = 1e-12
    plane_membership: float = 1e-10

    # verdict rules for density traces
    tol_zero: float = 1e-2
    trailing_window: int = 5
    diverge_threshold: float = 10.0
    positive_spread: float = 0.05

    # jet fitting
    eigen_gap: float = 10.0
    trim_factor: float = 0.2
    ridge: float = 1e-12
    fit_scales: int = 6
    tol_unique: float = 1e-2

    # pointwise / angular comparisons
    angle_tol: float = 1e-2
    touching_tol: float = 1e-6

    # measure oracle: reliable scales satisfy r^m >= granularity_factor * g,
    # keeping the single-sample error floor well under the 5% stability gate
    granularity_factor: float = 40.0


@dataclass(frozen=True)
class Grids:
    eps_grid: tuple[float, ...] = (0.3, 0.1, 0.03)
    eta_grid: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    lambda_exponents: tuple[int, ...] = tuple(range(-6, 7))
    fd_steps: tuple[float, ...] = (1e-2, 1e-3, 1e-4)


DEFAULT_TOL = Tolerances()
DEFAULT_GRIDS = Grids()
