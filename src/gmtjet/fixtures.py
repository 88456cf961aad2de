"""Deterministic catalog of example sets with oracles and analytic ground truth.

Smooth calibration manifolds (line, polynomial graphs, circle, sphere, torus)
carry analytic jets and normal fields.  The pathological sets (dyadic annuli,
the hairy segment, the comb) get exact or semi-exact backends: unions of
segments are measured by the line-clipping engine of `measure`, with the
truncated tails accounted analytically where it matters.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from .density import DYADIC_SCHEDULE, ScaleSchedule
from .geometry import (
    ClosedBall,
    HomogeneousForm,
    Jet,
    OpenBall,
    Plane,
    Region,
)
from .measure import (
    ChartOracle,
    ChartSpec,
    CloudOracle,
    IntervalOracle,
    MeasureOracle,
    SegmentPiece,
    UnionOracle,
    WeightedCloud,
    clip_segments,
)

# The curved surfaces need gentle steps reaching deep: the residual checks of
# the order-3 jet scheme only see exact zeros below the scale where the
# quartic term of the surface clears the eps * r^3 threshold (about 6.5e-3 on
# the torus at eps = 0.03), and the trailing verdict windows need a run of
# scales below it.
SURFACE_SCHEDULE = ScaleSchedule(r0=0.5, q=0.92, J=64)


# ---------------------------------------------------------------------------
# hair sets


class HairOracle(IntervalOracle):
    """H^1 of horizontal segments plus a family of vertical hairs in R^2.

    The hairs stand at positions hx with extents [hy0, hy1].  Both kinds of
    segment are measured by one engine call; an optional analytic tail
    supplies the part of the set beyond the explicit truncation (balls at the
    origin get an exact formula; other regions see the tail through banded
    proxy points whose weights are exact band masses).  Samples are 64 per
    horizontal piece and 4 per hair: `samples_in_ball` takes no `per_piece`.
    """

    def __init__(self, hx, hy0, hy1, horizontal: Sequence[SegmentPiece] = (),
                 tail_ball_mass: Callable | None = None,
                 tail_points: tuple[np.ndarray, np.ndarray] | None = None):
        super().__init__(horizontal, n=2)
        self.n_horizontal = len(self.t0)
        hx = np.asarray(hx, dtype=float)
        self.p0 = np.vstack([self.p0, np.stack([hx, np.zeros_like(hx)], axis=1)])
        self.u = np.vstack([self.u, np.tile([0.0, 1.0], (len(hx), 1))])
        self.t0 = np.concatenate([self.t0, np.asarray(hy0, dtype=float) + 0.0 * hx])
        self.t1 = np.concatenate([self.t1, np.asarray(hy1, dtype=float) + 0.0 * hx])
        self.tail_ball_mass = tail_ball_mass
        self.tail_points = tail_points

    def mass(self, region: Region) -> tuple[float, float]:
        total, _ = super().mass(region)
        if self.tail_points is None:
            return total, 0.0
        if isinstance(region, (OpenBall, ClosedBall)) and self.tail_ball_mass is not None \
                and np.linalg.norm(region.center) <= 1e-12:
            tail, err = self.tail_ball_mass(region.radius)
            return total + tail, err
        pts, w = self.tail_points
        keep = region.contains_many(pts)
        if not keep.any():
            return total, 0.0
        return total + float(w[keep].sum()), float(w[keep].max())

    def samples_in_ball(self, center, radius):
        ball = ClosedBall(np.asarray(center, dtype=float), radius)
        lo, hi = clip_segments(ball, self.p0, self.u, self.t0, self.t1)
        h = self.n_horizontal
        parts = [self._spread(slice(None, h), lo, hi, 64),
                 self._spread(slice(h, None), lo, hi, 4)]
        if self.tail_points is not None:
            tp, tw = self.tail_points
            keep = ball.contains_many(tp)
            parts.append((tp[keep], tw[keep]))
        pts, ws = zip(*parts)
        return np.vstack(pts), np.concatenate(ws)


# ---------------------------------------------------------------------------
# fixtures


@dataclass
class SffChart:
    """Parametric chart carrying a unit normal field, for differentiating nu."""

    mapping: Callable[[np.ndarray], np.ndarray]     # (N, m) params -> (N, n)
    jacobian: Callable[[np.ndarray], np.ndarray]    # (N, m) -> (N, n, m)
    normal: Callable[[np.ndarray], np.ndarray]      # (N, m) -> (N, n)
    t0: np.ndarray                                  # parameter of the marked point


@dataclass
class SetFixture:
    name: str
    params: dict
    m: int
    oracle: MeasureOracle
    schedule: ScaleSchedule
    marked_points: list
    distance: Callable[[np.ndarray], float]
    ground_truth: dict = field(default_factory=dict)   # point key -> expectations
    jets: dict = field(default_factory=dict)           # point key -> analytic Jet
    sff_charts: dict = field(default_factory=dict)     # point key -> SffChart
    bound_radius: float = 4.0

    def sample_cloud(self, per_piece: int | None = None) -> WeightedCloud:
        """Samples of the set within bound_radius of the origin; `per_piece`
        goes to an oracle whose samples_in_ball takes it, and no other."""
        sample = self.oracle.samples_in_ball
        options = {}
        if per_piece is not None and "per_piece" in inspect.signature(sample).parameters:
            options["per_piece"] = per_piece
        return WeightedCloud(*sample(np.zeros(self.oracle.n), self.bound_radius, **options))


def point_key(p) -> tuple:
    return tuple(round(float(c), 12) for c in np.atleast_1d(p))


# --- smooth calibration manifolds ---


def _segment_distance(x, lo, hi):
    x = np.asarray(x, dtype=float)
    t = np.clip(x[0], lo, hi)
    return float(math.hypot(x[0] - t, x[1]))


def _make_line(params):
    half = float(params.get("half", 2.0))
    oracle = IntervalOracle([SegmentPiece(np.zeros(2), np.array([1.0, 0.0]), -half, half)], n=2)
    plane = Plane.axis(2, [0])
    a = np.zeros(2)
    gt = {point_key(a): {
        "m": 1, "plane_basis": plane.basis.tolist(),
        "upper_density": "limit_positive", "lower_density": "limit_positive",
        "density_estimate": 1.0,
        "classify": {"(2, 0)": "holds", "(3, 0)": "holds"},
        "upper_cone_holds": [[1.0, 0.0], [-1.0, 0.0]],
        "upper_cone_fails": [[0.0, 1.0], [0.0, -1.0]],
        "pt_plane_basis": plane.basis.tolist(),
    }}
    jets = {point_key(a): Jet.zero(a, plane, 3)}
    return SetFixture("line", dict(params), 1, oracle, ScaleSchedule(), [a],
                      lambda x: _segment_distance(x, -half, half), gt, jets)


def _graph_chart(c2, c3, half, resolution):
    def yfun(t):
        return c2 * t ** 2 / 2 + c3 * t ** 3 / 6

    def dyfun(t):
        return c2 * t + c3 * t ** 2 / 2

    def mapping(params):
        t = params[:, 0]
        return np.stack([t, yfun(t)], axis=1)

    def jacobian(params):
        t = params[:, 0]
        return np.stack([np.ones_like(t), dyfun(t)], axis=1)[:, :, None]

    def normal(params):
        t = params[:, 0]
        d = dyfun(t)
        nrm = np.sqrt(1 + d * d)
        return np.stack([-d / nrm, 1 / nrm], axis=1)

    chart = ChartSpec(domain=[(-half, half)], mapping=mapping,
                      jacobian=jacobian, quad_resolution=resolution)
    return chart, mapping, jacobian, normal, yfun


def _graph_distance_fn(yfun, half):
    def dist(x):
        x = np.asarray(x, dtype=float)

        def obj(t):
            return math.hypot(t - x[0], yfun(t) - x[1])

        res = minimize_scalar(obj, bounds=(-half, half), method="bounded",
                              options={"xatol": 1e-12})
        return float(res.fun)

    return dist


def _graph_fixture(name, c2, c3, half=1.2, resolution=32768, params=None):
    chart, mapping, jacobian, normal, yfun = _graph_chart(c2, c3, half, resolution)
    oracle = ChartOracle([chart], m=1)
    plane = Plane.axis(2, [0])
    a = np.zeros(2)
    forms = {2: HomogeneousForm(2, plane, {(2,): np.array([0.0, c2 / 2])}),
             3: HomogeneousForm(3, plane, {(3,): np.array([0.0, c3 / 6])})}
    jet = Jet(a, plane, 3, 0.0, forms)
    gt = {point_key(a): {
        "m": 1, "plane_basis": plane.basis.tolist(),
        "upper_density": "limit_positive", "lower_density": "limit_positive",
        "density_estimate": 1.0,
        "classify": {"(2, 0)": "holds", "(3, 0)": "holds"},
        "jet_coefficients": {"2": [[0.0, c2 / 2]], "3": [[0.0, c3 / 6]]},
        "pt_plane_basis": plane.basis.tolist(),
    }}
    sff = SffChart(mapping, jacobian, normal, np.zeros(1))
    return SetFixture(name, params or {"c2": c2, "c3": c3}, 1, oracle,
                      ScaleSchedule(), [a], _graph_distance_fn(yfun, half),
                      gt, {point_key(a): jet}, {point_key(a): sff})


def _make_graph_poly(params):
    coeffs = params.get("coeffs", (1.0, 0.0))
    c2, c3 = float(coeffs[0]), float(coeffs[1])
    return _graph_fixture("graph_poly", c2, c3, params=dict(params))


def _make_parabola_touch(params):
    fx = _graph_fixture("parabola_touch", 1.0, 0.0, half=1.6, params=dict(params))
    fx.ground_truth[point_key(np.zeros(2))]["touching"] = [
        {"nu": [0.0, -1.0], "r": 0.9, "expect": "holds"},
        {"nu": [0.0, 1.0], "r": 0.9, "expect": "holds"},
        {"nu": [0.0, 1.0], "r": 1.0, "expect": "holds"},
        {"nu": [0.0, 1.0], "r": 1.1, "expect": "precondition_failed"},
    ]
    return fx


def _make_circle(params):
    R = float(params.get("R", 1.0))
    if R <= 0:
        raise ValueError("circle needs R > 0")
    resolution = params.get("resolution", 32768)

    def mapping(p):
        th = p[:, 0]
        return R * np.stack([np.cos(th), np.sin(th)], axis=1)

    def jacobian(p):
        th = p[:, 0]
        return R * np.stack([-np.sin(th), np.cos(th)], axis=1)[:, :, None]

    def normal(p):
        th = p[:, 0]
        return np.stack([np.cos(th), np.sin(th)], axis=1)

    chart = ChartSpec(domain=[(0.0, 2 * math.pi)], mapping=mapping,
                      jacobian=jacobian, quad_resolution=resolution)
    oracle = ChartOracle([chart], m=1)
    a = np.array([R, 0.0])
    plane = Plane.axis(2, [1])
    jet = Jet(a, plane, 2, 0.0,
              {2: HomogeneousForm(2, plane, {(2,): np.array([-1 / (2 * R), 0.0])})})
    gt = {point_key(a): {
        "m": 1, "plane_basis": plane.basis.tolist(),
        "upper_density": "limit_positive", "lower_density": "limit_positive",
        "density_estimate": 1.0,
        "classify": {"(2, 0)": "holds", "(3, 0)": "holds"},
        "upper_cone_holds": [[0.0, 1.0], [0.0, -1.0]],
        "upper_cone_fails": [[1.0, 0.0], [-1.0, 0.0]],
        "sff_eigenvalue": 1.0 / R,
        "pt_plane_basis": plane.basis.tolist(),
    }}
    sff = SffChart(mapping, jacobian, normal, np.zeros(1))
    return SetFixture("circle", dict(params, R=R), 1, oracle, ScaleSchedule(),
                      [a], lambda x: abs(float(np.linalg.norm(x)) - R),
                      gt, {point_key(a): jet}, {point_key(a): sff},
                      bound_radius=2 * R + 1)


def _make_sphere(params):
    R = float(params.get("R", 1.0))
    if R <= 0:
        raise ValueError("sphere needs R > 0")
    # fine enough that the vanishing-density cone checks resolve the
    # transition radius 2*eps*R of the smallest grid eps
    resolution = params.get("resolution", 768)

    def mapping(p):
        th, ph = p[:, 0], p[:, 1]
        return R * np.stack([np.sin(th) * np.cos(ph),
                             np.sin(th) * np.sin(ph),
                             np.cos(th)], axis=1)

    def jacobian(p):
        th, ph = p[:, 0], p[:, 1]
        d_th = R * np.stack([np.cos(th) * np.cos(ph),
                             np.cos(th) * np.sin(ph), -np.sin(th)], axis=1)
        d_ph = R * np.stack([-np.sin(th) * np.sin(ph),
                             np.sin(th) * np.cos(ph), np.zeros_like(th)], axis=1)
        return np.stack([d_th, d_ph], axis=2)

    def normal(p):
        return mapping(p) / R

    chart = ChartSpec(domain=[(0.0, math.pi), (0.0, 2 * math.pi)],
                      mapping=mapping, jacobian=jacobian, quad_resolution=resolution)
    oracle = ChartOracle([chart], m=2)
    a = np.array([0.0, 0.0, R])
    plane = Plane.axis(3, [0, 1])
    coeff = np.array([0.0, 0.0, -1 / (2 * R)])
    jet = Jet(a, plane, 2, 0.0,
              {2: HomogeneousForm(2, plane, {(2, 0): coeff, (0, 2): coeff, (1, 1): np.zeros(3)})})
    gt = {point_key(a): {
        "m": 2, "plane_basis": plane.basis.tolist(),
        "upper_density": "limit_positive", "lower_density": "limit_positive",
        "density_estimate": 1.0,
        "classify": {"(2, 0)": "holds", "(3, 0)": "holds"},
        "sff_eigenvalue": 1.0 / R,
        "pt_plane_basis": plane.basis.tolist(),
    }}
    # chart parameter of the north pole is singular; differentiate nu along a
    # meridian chart instead: t -> (R sin t, 0, R cos t), normal outward
    def mer_map(p):
        t = p[:, 0]
        return R * np.stack([np.sin(t), np.zeros_like(t), np.cos(t)], axis=1)

    def mer_jac(p):
        t = p[:, 0]
        return R * np.stack([np.cos(t), np.zeros_like(t), -np.sin(t)], axis=1)[:, :, None]

    def mer_normal(p):
        return mer_map(p) / R

    sff = SffChart(mer_map, mer_jac, mer_normal, np.zeros(1))
    return SetFixture("sphere", dict(params, R=R), 2, oracle, SURFACE_SCHEDULE,
                      [a], lambda x: abs(float(np.linalg.norm(x)) - R),
                      gt, {point_key(a): jet}, {point_key(a): sff},
                      bound_radius=2 * R + 1)


def _make_torus(params):
    R = float(params.get("R", 1.0))
    r = float(params.get("r", 0.3))
    if not (0 < r < R):
        raise ValueError("torus needs 0 < r < R")
    # the inner radius sets the tightest curvature 1/r, whose quartic graph
    # term s^4/(8 r^3) crosses the order-3 residual threshold 0.03 s^3 near
    # s = 6.5e-3; the grid must stay usable a full trailing window below
    # that, which takes a much finer grid than the sphere needs
    resolution = params.get("resolution", 1536)

    def mapping(p):
        th, ph = p[:, 0], p[:, 1]
        w = R + r * np.cos(ph)
        return np.stack([w * np.cos(th), w * np.sin(th), r * np.sin(ph)], axis=1)

    def jacobian(p):
        th, ph = p[:, 0], p[:, 1]
        w = R + r * np.cos(ph)
        d_th = np.stack([-w * np.sin(th), w * np.cos(th), np.zeros_like(th)], axis=1)
        d_ph = np.stack([-r * np.sin(ph) * np.cos(th),
                         -r * np.sin(ph) * np.sin(th),
                         r * np.cos(ph)], axis=1)
        return np.stack([d_th, d_ph], axis=2)

    def normal(p):
        th, ph = p[:, 0], p[:, 1]
        return np.stack([np.cos(ph) * np.cos(th),
                         np.cos(ph) * np.sin(th),
                         np.sin(ph)], axis=1)

    chart = ChartSpec(domain=[(0.0, 2 * math.pi), (0.0, 2 * math.pi)],
                      mapping=mapping, jacobian=jacobian, quad_resolution=resolution)
    oracle = ChartOracle([chart], m=2)
    a = np.array([R + r, 0.0, 0.0])
    plane = Plane.axis(3, [1, 2])   # tangent directions: theta (e2) and phi (e3)
    c_th = np.array([-1 / (2 * (R + r)), 0.0, 0.0])
    c_ph = np.array([-1 / (2 * r), 0.0, 0.0])
    jet = Jet(a, plane, 2, 0.0,
              {2: HomogeneousForm(2, plane, {(2, 0): c_th, (0, 2): c_ph, (1, 1): np.zeros(3)})})

    def dist(x):
        x = np.asarray(x, dtype=float)
        rho = math.hypot(x[0], x[1])
        return abs(math.hypot(rho - R, x[2]) - r)

    gt = {point_key(a): {
        "m": 2, "plane_basis": plane.basis.tolist(),
        "upper_density": "limit_positive", "lower_density": "limit_positive",
        "density_estimate": 1.0,
        "classify": {"(2, 0)": "holds", "(3, 0)": "holds"},
        "sff_eigenvalues": sorted([1.0 / r, 1.0 / (R + r)]),
        "pt_plane_basis": plane.basis.tolist(),
    }}
    sff = SffChart(mapping, jacobian, normal, np.zeros(2))
    return SetFixture("torus", dict(params, R=R, r=r), 2, oracle, SURFACE_SCHEDULE,
                      [a], dist, gt, {point_key(a): jet}, {point_key(a): sff},
                      bound_radius=R + r + 1)


# --- pathological sets ---


def _make_dyadic_annuli(params):
    depth = int(params.get("depth", 40))
    pieces = []
    for i in range(depth):
        lo, hi = 2.0 ** (-2 * i - 1), 2.0 ** (-2 * i)
        for sign in (1.0, -1.0):
            pieces.append(SegmentPiece(np.zeros(1), np.array([sign]), lo, hi))
    oracle = IntervalOracle(pieces, n=1)
    a = np.zeros(1)

    def dist(x):
        t = abs(float(np.atleast_1d(x)[0]))
        best = t   # distance to the accumulation point 0 is at most |t|
        for i in range(depth):
            lo, hi = 2.0 ** (-2 * i - 1), 2.0 ** (-2 * i)
            best = min(best, abs(t - np.clip(t, lo, hi)))
        return best

    gt = {point_key(a): {
        "m": 1,
        "upper_density": "limit_positive", "upper_estimate": 2 / 3,
        "lower_density": "limit_positive", "lower_estimate": 1 / 3,
        "upper_cone_holds": [[1.0], [-1.0]],
        "lower_cone_fails": [[1.0], [-1.0]],
        "pt_plane": None,
    }}
    return SetFixture("dyadic_annuli", dict(params), 1, oracle, DYADIC_SCHEDULE,
                      [a], dist, gt, bound_radius=2.0)


def _aag_tail_ball_mass(alpha, gamma, n_start, radius):
    """Exact-at-working-precision mass of the hair tail (n >= n_start, both
    signs) inside a ball at the origin."""
    ag = alpha * gamma
    if radius <= 0:
        return 0.0, 0.0
    # hairs with x_n < radius: n > radius^(-1/alpha)
    n_lo = max(n_start, math.floor(radius ** (-1 / alpha)) + 1)
    # a hair is fully inside once h(n)^2 + x(n)^2 <= radius^2
    def fully_in(n):
        return n ** (-2 * ag) + n ** (-2 * alpha) <= radius ** 2

    if fully_in(n_lo):
        n_full = n_lo
    else:
        lo, hi = n_lo, n_lo
        while not fully_in(hi):
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fully_in(mid):
                hi = mid
            else:
                lo = mid
        n_full = hi
    err = 0.0
    band = 0.0
    count = n_full - n_lo
    if count > 0:
        def height(n):
            return np.minimum(n ** (-ag), np.sqrt(np.maximum(radius ** 2 - n ** (-2 * alpha), 0.0)))
        if count <= 10 ** 6:
            ns = np.arange(n_lo, n_full, dtype=float)
            band = float(height(ns).sum())
        else:
            # midpoint rule on a log grid in n, with a one-term error bound
            edges = np.unique(np.round(np.logspace(math.log10(n_lo), math.log10(n_full), 4097)))
            mids = 0.5 * (edges[:-1] + edges[1:])
            band = float((height(mids) * np.diff(edges)).sum())
            err = float(height(np.array([float(n_lo)]))[0]) * 2
    full = float(zeta(ag, n_full))
    return 2.0 * (band + full), 2.0 * err


def _make_a_alpha_gamma(params):
    gamma = float(params.get("gamma", 2.0))
    alpha = float(params.get("alpha", 0.75))
    if gamma <= 1:
        raise ValueError("a_alpha_gamma needs gamma > 1")
    lo, hi = 1 / gamma, 1 / (gamma - 1)
    if not (lo < alpha < hi):
        raise ValueError(f"a_alpha_gamma needs alpha in ({lo:.6g}, {hi:.6g}) for gamma={gamma:g}")
    n_max = int(params.get("n_max", 10 ** 5))
    ns = np.arange(1, n_max + 1, dtype=float)
    xs = ns ** -alpha
    hs = ns ** (-alpha * gamma)
    hx = np.concatenate([xs, -xs])
    hy1 = np.concatenate([hs, hs])
    segment = SegmentPiece(np.zeros(2), np.array([1.0, 0.0]), -1.0, 1.0)

    # banded proxy for the tail n > n_max: exact band masses at representative
    # positions, used for any query that is not a ball at the origin
    edges = np.unique(np.round(np.logspace(math.log10(n_max + 1), math.log10(n_max * 2 ** 40), 513)))
    tp, tw = [], []
    ag = alpha * gamma
    for n0, n1 in zip(edges[:-1], edges[1:]):
        mass = float(zeta(ag, n0) - zeta(ag, n1))
        if mass <= 0:
            continue
        x_mid = 0.5 * (n0 ** -alpha + n1 ** -alpha)
        h_mid = 0.5 * (n0 ** -ag + n1 ** -ag)
        for sign in (1.0, -1.0):
            tp.append([sign * x_mid, h_mid / 2])
            tw.append(mass)
    tail_pts = (np.array(tp), np.array(tw))
    oracle = HairOracle(hx, 0.0, hy1, [segment],
                        tail_ball_mass=lambda radius: _aag_tail_ball_mass(
                            alpha, gamma, n_max + 1, radius),
                        tail_points=tail_pts)
    a = np.zeros(2)
    plane = Plane.axis(2, [0])

    def dist(x):
        x = np.asarray(x, dtype=float)
        best = _segment_distance(x, -1.0, 1.0)
        dx = np.abs(np.abs(x[0]) - xs)
        dy = np.maximum(x[1] - hs, np.maximum(-x[1], 0.0))
        best = min(best, float(np.min(np.hypot(dx, dy))))
        return best

    gt = {point_key(a): {
        "m": 1, "plane_basis": plane.basis.tolist(),
        "upper_density": "diverges", "lower_density": "diverges",
        "classify": {"(1, 0)": "holds"},
        "blow_up": None,
    }}
    return SetFixture("a_alpha_gamma", dict(params, gamma=gamma, alpha=alpha), 1,
                      oracle, DYADIC_SCHEDULE, [a], dist, gt,
                      {point_key(a): Jet.zero(a, plane, 1)}, bound_radius=2.0)


def _make_comb(params):
    n_teeth = int(params.get("n_teeth", 10 ** 5))
    xs = 1.0 / np.arange(1, n_teeth + 1, dtype=float)
    hx = np.concatenate([[0.0], xs])      # limit segment plus teeth
    oracle = HairOracle(hx, 0.0, 1.0)
    a = np.array([0.0, 0.5])

    def dist(x):
        x = np.asarray(x, dtype=float)
        dy = np.maximum(x[1] - 1.0, np.maximum(-x[1], 0.0))
        return float(np.min(np.hypot(np.abs(x[0] - hx), dy)))

    gt = {point_key(a): {
        "m": 1,
        "lower_density": "limit_positive",
        "classify": {"(1, 0)": "fails"},
        "tangent_plane": None,
    }}
    # stop the schedule before the finite-teeth truncation drift (the -1/r
    # term in the ball mass) exceeds the 5% stability rule
    return SetFixture("comb", dict(params, n_teeth=n_teeth), 1, oracle,
                      ScaleSchedule(J=17), [a], dist, gt, bound_radius=2.0)


def _make_noisy_parabola(params):
    k = int(params.get("k", 2))
    if k < 1:
        raise ValueError("noisy_parabola needs k >= 1")
    base = _graph_fixture("noisy_parabola", 1.0, 0.0, params=dict(params, k=k))
    # start the noise a few shells down so its largest weight stays below the
    # chart quadrature granularity and the schedule clipping is unchanged
    radii = base.schedule.radii[6:]
    pts, ws = [], []
    for r in radii:
        for sx in (1.0, -1.0):
            pts.append([sx * 0.7 * r, 0.4 * r])
            ws.append(2 * r ** (k + 2))
    cloud = WeightedCloud(np.array(pts), np.array(ws))
    noise = CloudOracle(cloud, m=1)
    chart = base.oracle
    base.oracle = UnionOracle([chart, noise])
    pdist = base.distance

    def dist(x):
        x = np.asarray(x, dtype=float)
        dn = float(np.min(np.linalg.norm(cloud.points - x, axis=1)))
        return min(pdist(x), dn)

    base.distance = dist
    gt = base.ground_truth[point_key(np.zeros(2))]
    gt["noise_weights"] = "per shell 2 r^(k+2)"
    gt["carve"] = {"removed": "limit_zero", "pt_plane_basis": [[1.0, 0.0]]}
    return base


# name -> (builder, parameter help, the parameter keys the builder reads)
CATALOG = {
    "line": (_make_line, "half-length of the segment (default 2)", ("half",)),
    "graph_poly": (_make_graph_poly, "coeffs=(c2, c3) for y = c2 x^2/2 + c3 x^3/6",
                   ("coeffs",)),
    "circle": (_make_circle, "R > 0", ("R", "resolution")),
    "sphere": (_make_sphere, "R > 0", ("R", "resolution")),
    "torus": (_make_torus, "R > r > 0", ("R", "r", "resolution")),
    "dyadic_annuli": (_make_dyadic_annuli, "depth (default 40)", ("depth",)),
    "a_alpha_gamma": (_make_a_alpha_gamma, "gamma > 1, alpha in (1/gamma, 1/(gamma-1))",
                      ("gamma", "alpha", "n_max")),
    "comb": (_make_comb, "n_teeth (default 10^5)", ("n_teeth",)),
    "parabola_touch": (_make_parabola_touch, "no params", ()),
    "noisy_parabola": (_make_noisy_parabola, "k >= 1 (noise shells of relative mass r^(k+1))",
                       ("k",)),
}


def make_fixture(name: str, **params) -> SetFixture:
    if name not in CATALOG:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(sorted(CATALOG))}")
    builder, _, keys = CATALOG[name]
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ValueError(f"fixture {name!r} has no parameter {unknown[0]!r}; "
                         f"it takes {', '.join(keys) or 'none'}")
    for key, value in params.items():
        if any(isinstance(v, (int, float)) and not math.isfinite(v) for v in np.ravel(value)):
            raise ValueError(f"fixture {name!r} parameter {key!r} is not finite: {value!r}")
    return builder(params)


def ground_truth_report(fixture: SetFixture) -> dict:
    points = []
    for p in fixture.marked_points:
        points.append({"point": [float(c) for c in np.atleast_1d(p)],
                       "expected": fixture.ground_truth.get(point_key(p), {})})
    return {"name": fixture.name,
            "params": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in fixture.params.items()},
            "m": fixture.m,
            "points": points}
