"""Second fundamental form from order-2 jets and the normal-field identity.

The bilinear form is the order-2 differential of the jet restricted to the
tangent plane; differentiating a unit normal field along the set must then
reproduce it with the opposite sign, which is checked by Richardson-
extrapolated finite differences along a parametric chart.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_GRIDS
from .density import Verdict
from .geometry import Jet, Plane, apply_differential, jet_to_full_differential


@dataclass(frozen=True)
class SecondFundamentalForm:
    """Symmetric bilinear map on the tangent plane with values in T-perp."""

    plane: Plane
    tensor: np.ndarray     # (n, n, n); first two axes contract with vectors

    def __call__(self, u, v) -> np.ndarray:
        return apply_differential(self.tensor, [np.asarray(u, dtype=float),
                                                np.asarray(v, dtype=float)])

    def matrix(self, nu) -> np.ndarray:
        """The scalar form b(t_i, t_j) . nu over the tangent basis."""
        nu = np.asarray(nu, dtype=float)
        basis = self.plane.basis
        m = self.plane.m
        out = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                out[i, j] = float(self(basis[i], basis[j]) @ nu)
        return out


def approximate_sff(jet: Jet) -> SecondFundamentalForm:
    """The order-2 differential of the jet as a tangent bilinear form.

    Values must land in the normal space; a tangential component beyond
    1e-10 means the jet's coefficients were not normal-valued.
    """
    if jet.degree < 2:
        raise ValueError("second fundamental form needs a jet of order >= 2")
    tensor = jet_to_full_differential(jet, 2)
    T = jet.plane
    for i in range(T.m):
        for j in range(i, T.m):
            val = apply_differential(tensor, [T.basis[i], T.basis[j]])
            tangential = val - val @ T.normal_projector
            if np.linalg.norm(tangential) > 1e-10:
                raise ValueError("form values stray from the normal space")
    return SecondFundamentalForm(T, tensor)


def _richardson(samples: list[np.ndarray], ratio: float) -> np.ndarray:
    """Eliminate the leading O(h^2) error of central differences."""
    out = list(samples)
    factor = ratio**2
    while len(out) > 1:
        out = [(factor * out[i + 1] - out[i]) / (factor - 1)
               for i in range(len(out) - 1)]
    return out[0]


def normal_field_identity_check(fixture, a) -> Verdict:
    """D nu(u) . v = -sff(u, v) . nu along the fixture's normal field.

    The form comes from the fixture's order-2 jet at a.  The derivative of
    nu is taken by central differences in the chart parameters with the
    steps in DEFAULT_GRIDS.fd_steps, Richardson-extrapolated, and divided by
    the metric factor so u is a unit tangent vector.
    """
    from .fixtures import point_key

    a = np.asarray(a, dtype=float)
    chart = fixture.sff_charts.get(point_key(a))
    if chart is None:
        raise ValueError(f"no normal-field chart at {a}")
    form = approximate_sff(fixture.jets[point_key(a)])

    t0 = np.asarray(chart.t0, dtype=float)
    nu0 = chart.normal(t0[None, :])[0]
    jac = chart.jacobian(t0[None, :])[0]          # (n, p)
    diag: dict = {}

    # the field must be unit and orthogonal to the chart directions
    probes = [t0]
    for p in range(jac.shape[1]):
        for h in DEFAULT_GRIDS.fd_steps:
            e = np.zeros_like(t0)
            e[p] = h
            probes.extend([t0 + e, t0 - e])
    for t in probes:
        nu = chart.normal(np.atleast_2d(t))[0]
        J = chart.jacobian(np.atleast_2d(t))[0]
        if abs(np.linalg.norm(nu) - 1.0) > 1e-6:
            return Verdict("precondition_failed", {"reason": "nu not unit"})
        for p in range(J.shape[1]):
            col = J[:, p]
            if abs(float(nu @ col)) > 1e-6 * np.linalg.norm(col):
                return Verdict("precondition_failed",
                               {"reason": "nu not normal to the chart"})

    ratio = float(DEFAULT_GRIDS.fd_steps[0] / DEFAULT_GRIDS.fd_steps[1])
    worst = 0.0
    pairs = []
    for p in range(jac.shape[1]):
        col = jac[:, p]
        scale = float(np.linalg.norm(col))
        u = col / scale
        diffs = []
        for h in DEFAULT_GRIDS.fd_steps:
            e = np.zeros_like(t0)
            e[p] = h
            plus = chart.normal(np.atleast_2d(t0 + e))[0]
            minus = chart.normal(np.atleast_2d(t0 - e))[0]
            diffs.append((plus - minus) / (2.0 * h * scale))
        dnu = _richardson(diffs, ratio)
        for v in [row for r in form.plane.basis for row in (r, -r)]:
            lhs = float(dnu @ v)
            rhs = -float(form(u, v) @ nu0)
            gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-8)
            worst = max(worst, gap)
            pairs.append({"u_param": p, "lhs": lhs, "rhs": rhs, "gap": gap})
    diag["pairs"] = pairs
    diag["worst_gap"] = worst
    return Verdict("holds" if worst <= 1e-2 else "fails", diag)
