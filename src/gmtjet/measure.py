"""Queryable approximations of an m-dimensional Hausdorff measure on a set.

Three backends:

* chart quadrature (midpoint tensor grids over parametric charts, with a
  one-refinement error estimate), built on the first query,
* weighted point clouds (empirical, granularity-limited), whose point
  masses have no margins,
* exact lengths of unions of line segments, from one line-clipping engine
  vectorized over segment families (closed forms for balls, cylinders, cones
  and plane cones, a bisection scan for any other region).

Chart grids and clouds share one anchored index: rows stored sorted by
distance to an anchor center, so that every query reads only the prefix its
ball can reach and the many radii a density trace asks about one center are
prefix slices.

Every oracle answers ``mass(region) -> (value, error_estimate)`` and can hand
out a localized sample representation for the estimators.  A density trace
asks ``trace(center, radii, family)``: the masses of B(center, r) ^
family.region(r), bit for bit those of ``mass``, where chart grids and clouds
evaluate the family's per-point field once instead of once per radius.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    ClosedBall,
    Complement,
    Cone,
    Cylinder,
    FullSpace,
    Intersection,
    OpenBall,
    PlaneCone,
    Region,
)


def unit_ball_volume(m: int) -> float:
    """Volume of the unit m-ball."""
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


# ---------------------------------------------------------------------------
# line clipping
#
# A region clipped along a family of N segments {p0_i + t u_i : t0_i <= t <= t1_i}
# is a set of K pieces per segment with disjoint interiors and
# t0_i <= lo <= hi <= t1_i; a zero-length piece is empty.  Inside the engine
# points and directions are (n, N) arrays and pieces (K, N) arrays, so every
# numpy operation runs along the long axis of the family.

# segments per engine block: temporaries of this size are reused without page
# faults, which makes them several times faster than family-sized ones
BLOCK = 8192
SCAN_CELLS = 1024
SCAN_HALVINGS = 50
# largest number of points one bisection scan may evaluate; a block holds
# more than SCAN_POINT_LIMIT / SCAN_CELLS segments, so a family too large to
# scan fails on its first block
SCAN_POINT_LIMIT = 2 ** 20


def _dot(x, y):
    """Column-wise dot products of (n, N) arrays."""
    return np.einsum("ij,ij->j", x, y)


def _canon(lo, hi, t0, t1):
    """Clip pieces into [t0, t1]; an empty piece becomes one of zero length."""
    lo = np.minimum(np.maximum(lo, t0), t1)
    return lo, np.maximum(np.minimum(hi, t1), lo)


def _whole(t0, t1):
    """Each segment as one piece."""
    return _canon(t0[None], t1[None], t0, t1)


def _compact(lo, hi):
    """Drop the piece rows that are empty for every segment, keeping one."""
    used = (hi > lo).any(axis=1)
    used[np.argmax(used)] = True
    return lo[used], hi[used]


def _intersect(a, b):
    (alo, ahi), (blo, bhi) = a, b
    lo = np.maximum(alo[:, None], blo[None, :]).reshape(-1, alo.shape[1])
    hi = np.minimum(ahi[:, None], bhi[None, :]).reshape(-1, alo.shape[1])
    return _compact(lo, np.maximum(hi, lo))


def _complement(pieces, t0, t1):
    """[t0, t1] minus the pieces: the intersection of the gaps around each."""
    gaps = [(np.stack([t0, hi]), np.stack([lo, t1])) for lo, hi in zip(*pieces)]
    return _compact(*functools.reduce(_intersect, gaps))


def _ball(w0, u, radius, t0, t1):
    """{t : |w0 + t u| < radius} for unit directions u."""
    center = -_dot(w0, u)
    foot = w0 + center * u
    half = np.sqrt(np.maximum(radius ** 2 - _dot(foot, foot), 0.0))
    return _canon((center - half)[None], (center + half)[None], t0, t1)


def _sublevel(a2, a1, a0, t0, t1):
    """{t : a2 t^2 + a1 t + a0 <= 0}: two pieces per segment."""
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = a1 * a1 - 4 * a2 * a0
        q = -0.5 * (a1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), a1))
        two = disc > 0
        # without real roots a double root, which leaves an empty piece for
        # a2 > 0 and the whole line for a2 < 0
        small = np.where(two, np.minimum(q / a2, a0 / q), -a1 / (2 * a2))
        big = np.where(two, np.maximum(q / a2, a0 / q), -a1 / (2 * a2))
        up = a2 > 0
        flat = a2 == 0
        if flat.any():
            # a half-line ending at the root, or for a1 == 0 all or nothing
            root = np.where(a1 == 0, 0.0, -a0 / a1)
            small = np.where(flat, np.where(a1 < 0, -np.inf, root), small)
            big = np.where(flat, np.where(a1 > 0, np.inf, root), big)
            up |= flat & (a1 == 0) & (a0 > 0)
    lo = np.stack([np.where(up, small, -np.inf), np.where(up, np.inf, big)])
    hi = np.stack([np.where(up, big, small), np.full_like(small, np.inf)])
    return _compact(*_canon(lo, hi, t0, t1))


def _scan(region: Region, p0, u, t0, t1):
    """Bisection-refined scan of SCAN_CELLS cells per segment, for any region."""
    n_seg = len(t0)
    if n_seg * SCAN_CELLS > SCAN_POINT_LIMIT:
        raise NotImplementedError(
            f"no closed-form clip for {type(region).__name__}, and the bisection "
            f"scan takes at most {SCAN_POINT_LIMIT // SCAN_CELLS} segments at once")

    def member(seg, t):
        return region.contains_many((p0[:, seg] + t * u[:, seg]).T)

    ts = np.linspace(t0, t1, SCAN_CELLS + 1)
    mids = 0.5 * (ts[:-1] + ts[1:])
    every = np.repeat(np.arange(n_seg), SCAN_CELLS)
    inside = member(every, mids.T.ravel()).reshape(n_seg, SCAN_CELLS)
    seg, cell = np.nonzero(inside[:, 1:] != inside[:, :-1])
    lo, hi, flo = mids[cell, seg], mids[cell + 1, seg], inside[seg, cell]
    for _ in range(SCAN_HALVINGS):
        mid = 0.5 * (lo + hi)
        same = member(seg, mid) == flo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    # bounds t0, edges..., t1 per segment, padded with t1
    count = np.bincount(seg, minlength=n_seg)
    bounds = np.repeat(t1[None], count.max(initial=0) + 2, axis=0)
    bounds[0] = t0
    first = np.cumsum(count) - count
    bounds[np.arange(len(seg)) - first[seg] + 1, seg] = 0.5 * (lo + hi)
    blo, bhi = bounds[:-1], bounds[1:]
    keep = member(np.tile(np.arange(n_seg), len(blo)), (0.5 * (blo + bhi)).ravel())
    keep = keep.reshape(blo.shape)
    return _compact(blo, np.where(keep, bhi, blo))


def _clip(region: Region, p0, u, t0, t1):
    if isinstance(region, FullSpace):
        return _whole(t0, t1)
    if isinstance(region, (OpenBall, ClosedBall)):
        return _ball(p0 - region.center[:, None], u, region.radius, t0, t1)
    if isinstance(region, Cylinder):
        d = p0 - region.center[:, None]
        P = region.plane.projector
        pd, pu = P @ d, P @ u
        bands = [_sublevel(_dot(w1, w1), 2 * _dot(w0, w1), _dot(w0, w0) - radius ** 2, t0, t1)
                 for w0, w1, radius in ((pd, pu, region.s), (d - pd, u - pu, region.t))
                 if np.isfinite(radius)]
        return functools.reduce(_intersect, bands, _whole(t0, t1))
    if isinstance(region, Cone):
        v = region.v
        k = float(v @ v) - region.eps ** 2
        if k < 0:
            return _whole(t0, t1)
        d = p0 - region.apex[:, None]
        dv, uv = v @ d, v @ u
        # inside: dv + t uv > 0 and (dv + t uv)^2 > k |d + t u|^2
        outside = _sublevel(uv * uv - k * _dot(u, u), 2 * (dv * uv - k * _dot(d, u)),
                            dv * dv - k * _dot(d, d), t0, t1)
        behind = _sublevel(np.zeros_like(uv), uv, dv, t0, t1)
        return _intersect(_complement(outside, t0, t1), _complement(behind, t0, t1))
    if isinstance(region, PlaneCone):
        d = p0 - region.apex[:, None]
        P = region.plane.projector
        pd, pu = P @ d, P @ u
        nd, nu = d - pd, u - pu
        e2 = region.eps ** 2
        # |N(d + t u)|^2 <= eps^2 |P(d + t u)|^2
        return _sublevel(_dot(nu, nu) - e2 * _dot(pu, pu),
                         2 * (_dot(nd, nu) - e2 * _dot(pd, pu)),
                         _dot(nd, nd) - e2 * _dot(pd, pd), t0, t1)
    if isinstance(region, Complement):
        return _complement(_clip(region.inner, p0, u, t0, t1), t0, t1)
    if isinstance(region, Intersection):
        return functools.reduce(_intersect, [_clip(part, p0, u, t0, t1) for part in region.parts],
                                _whole(t0, t1))
    return _scan(region, p0, u, t0, t1)


def clip_segments(region: Region, p0, u, t0, t1) -> tuple[np.ndarray, np.ndarray]:
    """Pieces of {t in [t0_i, t1_i] : p0_i + t u_i in region} for N segments.

    p0 is (N, n); u is (N, n) or one shared (n,) direction, of unit length;
    t0 and t1 are (N,).  Returns (lo, hi) of shape (N, K): K pieces per
    segment with disjoint interiors and t0_i <= lo <= hi <= t1_i, where a
    zero-length piece is empty.  Balls, cylinders, cones, plane cones,
    complements and intersections have closed forms in any dimension; any
    other region is located by a bisection scan, which raises
    NotImplementedError when the family would need more than
    SCAN_POINT_LIMIT points.
    """
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    u = np.broadcast_to(np.asarray(u, dtype=float), p0.shape)
    t0 = np.asarray(t0, dtype=float).ravel()
    t1 = np.asarray(t1, dtype=float).ravel()
    pieces = [_clip(region, np.ascontiguousarray(p0[i:i + BLOCK].T),
                    np.ascontiguousarray(u[i:i + BLOCK].T), t0[i:i + BLOCK], t1[i:i + BLOCK])
              for i in range(0, len(t0), BLOCK)]
    width = max((len(lo) for lo, _ in pieces), default=1)
    lo, hi = np.repeat(t1[None], width, axis=0), np.repeat(t1[None], width, axis=0)
    for i, (block_lo, block_hi) in zip(range(0, len(t0), BLOCK), pieces):
        lo[:len(block_lo), i:i + BLOCK] = block_lo
        hi[:len(block_hi), i:i + BLOCK] = block_hi
    return lo.T, hi.T


# ---------------------------------------------------------------------------
# scale families
#
# A density trace measures B(center, r) ^ region(r) for up to 64 nested radii
# at one center.  Where region(r) is a threshold on a per-point field, an
# oracle can evaluate the field once, on the rows of the largest ball, and
# answer each radius with a threshold and a sum over its own rows.


class SharedField:
    """A function of (N, n) points, row by row, that keeps its last values.

    The traces of one condition (several apertures or lambdas) evaluate one
    field on the same rows, so each evaluation is kept with a copy of its
    rows and handed out again for equal rows.  `fn` must treat every row
    alone; its values are read, never written.
    """

    SLOTS = 2   # a chart trace reads a fine and a coarse grid

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn
        self._kept = []   # [(rows, values)], most recent first

    def __call__(self, X: np.ndarray):
        for rows, values in self._kept:
            if rows.shape == X.shape and np.array_equal(rows, X):
                return values
        values = self.fn(X)
        self._kept = [(X.copy(), values)] + self._kept[:self.SLOTS - 1]
        return values


class Family:
    """The regions one density trace measures: B(center, r) ^ region(r).

    This class is the plain ball.  A subclass names a `region(r)` whose
    membership is a threshold on a per-point `field` (a SharedField):
    `keep(values, r)` must give region(r).contains_many on the rows the
    values came from, bit for bit, or None for every row.  `query`,
    `evaluate` and `inside` are what oracles use; the wrappers of
    RestrictedOracle and MappedOracle replace them.
    """

    field: SharedField | None = None

    def region(self, r: float) -> Region | None:
        return None

    def keep(self, values: np.ndarray, r: float) -> np.ndarray | None:
        return None

    def query(self, center: np.ndarray, r: float) -> Region:
        """The region `mass` is asked about at radius r."""
        region = self.region(r)
        ball = ClosedBall(center, r)
        return ball if region is None else Intersection(ball, region)

    def evaluate(self, X: np.ndarray, center: np.ndarray):
        """Per-row state of rows X, computed once per trace."""
        d = X - center
        values = None if self.field is None else self.field(X)
        return np.einsum("ij,ij->i", d, d), values

    def inside(self, state, r: float, n: int) -> np.ndarray:
        """query(center, r).contains_many(X[:n]) from the state of rows X."""
        dd, values = state
        ok = dd[:n] <= r ** 2
        if values is not None:
            keep = self.keep(values[..., :n], r)
            if keep is not None:
                ok &= keep
        return ok


BALL = Family()


def _queries(center, radii, family: Family):
    """A trace's center as an array, its radii as floats and their queries."""
    center = np.asarray(center, dtype=float)
    radii = [float(r) for r in radii]
    return center, radii, [family.query(center, r) for r in radii]


class _Restricted(Family):
    """A family seen through RestrictedOracle: each query also meets `region`."""

    def __init__(self, inner: Family, region: Region):
        self.inner = inner
        self.static = region

    def query(self, center, r):
        return Intersection(self.inner.query(center, r), self.static)

    def evaluate(self, X, center):
        return self.inner.evaluate(X, center), self.static.contains_many(X)

    def inside(self, state, r, n):
        inner, static = state
        return self.inner.inside(inner, r, n) & static[:n]


class _Preimage(Family):
    """A family seen through MappedOracle: each query is pulled back by fwd."""

    def __init__(self, inner: Family, oracle: "MappedOracle"):
        self.inner = inner
        self.oracle = oracle

    def query(self, center, r):
        return PreimageRegion(self.inner.query(center, r), self.oracle.fwd,
                              self.oracle.displacement_bound)

    def evaluate(self, X, center):
        return self.inner.evaluate(self.oracle.mapped(X), center)

    def inside(self, state, r, n):
        return self.inner.inside(state, r, n)


# ---------------------------------------------------------------------------
# oracle base


def _kept_sum(w, keep) -> tuple[float, float]:
    """Total and largest weight of the kept samples (0 when none is kept)."""
    kept = w[keep]
    return float(kept.sum()), (float(kept.max()) if len(kept) else 0.0)


class MeasureOracle:
    """Queryable approximation of H^m restricted to a set."""

    m: int
    n: int

    def mass(self, region: Region) -> tuple[float, float]:
        raise NotImplementedError

    def trace(self, center, radii, family: Family = BALL) -> list[tuple[float, float]]:
        """[mass(family.query(center, r)) for r in radii].

        Backends that evaluate the family's field once per trace override
        this and return the same values, bit for bit.
        """
        return [self.mass(q) for q in _queries(center, radii, family)[2]]

    def samples_in_ball(self, center: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Localized empirical representation: points and weights in B(center, radius)."""
        raise NotImplementedError

    def granularity(self) -> float:
        """Largest single-sample weight (measure units); 0 for exact backends."""
        raise NotImplementedError

    def restrict(self, region: Region) -> "MeasureOracle":
        return RestrictedOracle(self, region)


class RestrictedOracle(MeasureOracle):
    def __init__(self, base: MeasureOracle, region: Region):
        self.base = base
        self.region = region
        self.m = base.m
        self.n = base.n

    def mass(self, region: Region) -> tuple[float, float]:
        return self.base.mass(Intersection(region, self.region))

    def trace(self, center, radii, family: Family = BALL):
        return self.base.trace(center, radii, _Restricted(family, self.region))

    def samples_in_ball(self, center, radius):
        pts, w = self.base.samples_in_ball(center, radius)
        if len(pts) == 0:
            return pts, w
        keep = self.region.contains_many(pts)
        return pts[keep], w[keep]

    def granularity(self):
        return self.base.granularity()


class PreimageRegion(Region):
    """{x : fwd(x) in region} for a pointwise map; used by MappedOracle."""

    def __init__(self, region: Region, fwd: Callable[[np.ndarray], np.ndarray],
                 pad: Callable):
        self.region = region
        self.fwd = fwd
        self.pad = pad

    def contains_many(self, X):
        return self.region.contains_many(self.fwd(np.atleast_2d(X)))

    def bounding_ball(self):
        bb = self.region.bounding_ball()
        if bb is None:
            return None
        center, radius = bb
        return center, radius + float(self.pad(center, radius))


class MappedOracle(MeasureOracle):
    """Pushforward of a measure under a bi-Lipschitz map, weights unchanged.

    Intended for vertical shears whose metric distortion vanishes at the
    working point: mass queries answer with the preimage mass, which agrees
    with the pushforward measure up to a distortion factor that tends to 1
    at the scales the verdict rules read.  `displacement_bound(center,
    radius)` must bound |fwd(x) - x| over the preimage of B(center, radius);
    it keeps bounding-ball culling available through the map.
    """

    def __init__(self, base: MeasureOracle, fwd, displacement_bound):
        self.base = base
        self.fwd = fwd
        self.displacement_bound = displacement_bound
        # fwd of the rows a trace reads, kept across the traces of a condition
        self.mapped = SharedField(fwd)
        self.m = base.m
        self.n = base.n

    def mass(self, region: Region) -> tuple[float, float]:
        return self.base.mass(PreimageRegion(region, self.fwd, self.displacement_bound))

    def trace(self, center, radii, family: Family = BALL):
        return self.base.trace(center, radii, _Preimage(family, self))

    def samples_in_ball(self, center, radius):
        center = np.asarray(center, dtype=float)
        pad = float(self.displacement_bound(center, radius))
        pts, w = self.base.samples_in_ball(center, radius + pad)
        if len(pts) == 0:
            return pts, w
        out = np.atleast_2d(self.fwd(pts))
        d = out - center
        keep = np.einsum("ij,ij->i", d, d) <= radius**2
        return out[keep], w[keep]

    def granularity(self):
        return self.base.granularity()


class UnionOracle(MeasureOracle):
    """Sum of measures carried by several oracles (disjoint supports assumed)."""

    def __init__(self, parts: Sequence[MeasureOracle]):
        if not parts:
            raise ValueError("no parts")
        self.parts = list(parts)
        self.m = parts[0].m
        self.n = parts[0].n
        if any(p.m != self.m or p.n != self.n for p in parts):
            raise ValueError("mismatched dimensions across parts")

    def mass(self, region: Region) -> tuple[float, float]:
        vals, errs = zip(*(p.mass(region) for p in self.parts))
        return float(sum(vals)), float(sum(errs))

    def trace(self, center, radii, family: Family = BALL):
        rows = zip(*(p.trace(center, radii, family) for p in self.parts))
        return [(float(sum(v for v, _ in row)), float(sum(e for _, e in row))) for row in rows]

    def samples_in_ball(self, center, radius):
        pts, ws = [], []
        for p in self.parts:
            pp, ww = p.samples_in_ball(center, radius)
            if len(pp):
                pts.append(pp)
                ws.append(ww)
        if not pts:
            return np.zeros((0, self.n)), np.zeros(0)
        return np.vstack(pts), np.concatenate(ws)

    def granularity(self):
        return max(p.granularity() for p in self.parts)


# ---------------------------------------------------------------------------
# weighted point clouds


@dataclass
class WeightedCloud:
    points: np.ndarray   # (N, n)
    weights: np.ndarray  # (N,)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points/weights length mismatch")
        if not np.all(np.isfinite(self.points)) or not np.all(np.isfinite(self.weights)):
            raise ValueError("non-finite entries in cloud")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")


CLOUD_HEADER = "#gmt-cloud"


def write_cloud(cloud: WeightedCloud, m: int, path_or_fp) -> None:
    fp = open(path_or_fp, "w") if isinstance(path_or_fp, (str, bytes)) else path_or_fp
    close = isinstance(path_or_fp, (str, bytes))
    try:
        n = cloud.points.shape[1]
        fp.write(f"{CLOUD_HEADER} n={n} m={m}\n")
        for w, p in zip(cloud.weights, cloud.points):
            fp.write(" ".join([repr(float(w))] + [repr(float(c)) for c in p]) + "\n")
    finally:
        if close:
            fp.close()


def read_cloud(path_or_fp) -> tuple[WeightedCloud, int]:
    """Read the gmt-cloud text format; returns (cloud, m)."""
    fp = open(path_or_fp) if isinstance(path_or_fp, (str, bytes)) else path_or_fp
    close = isinstance(path_or_fp, (str, bytes))
    try:
        header = fp.readline().strip()
        parts = header.split()
        if len(parts) != 3 or parts[0] != CLOUD_HEADER:
            raise ValueError("missing #gmt-cloud header")
        n = int(parts[1].split("=")[1])
        m = int(parts[2].split("=")[1])
        weights, points = [], []
        for line in fp:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vals = [float(tok) for tok in line.split()]
            if len(vals) != n + 1:
                raise ValueError(f"record has {len(vals)} fields, expected {n + 1}")
            weights.append(vals[0])
            points.append(vals[1:])
        return WeightedCloud(np.array(points).reshape(-1, n), np.array(weights)), m
    finally:
        if close:
            fp.close()


class CloudOracle(MeasureOracle):
    """The cloud's point masses as one `_AnchoredGrid`: a query reads only the
    rows its bounding ball can reach and sums those the region contains."""

    def __init__(self, cloud: WeightedCloud, m: int):
        if cloud.points.shape[0] == 0:
            raise ValueError("empty cloud")
        self.cloud = cloud
        self.m = m
        self.n = cloud.points.shape[1]
        if not 1 <= m <= self.n:
            raise ValueError(f"cloud in R^{self.n} cannot carry an m={m} measure")
        self.grid = _AnchoredGrid(cloud.points, cloud.weights)

    def mass(self, region: Region) -> tuple[float, float]:
        return self.grid.sum(region)

    def trace(self, center, radii, family: Family = BALL):
        return self.grid.trace(*_queries(center, radii, family), family)

    def samples_in_ball(self, center, radius):
        return self.grid.in_ball(np.asarray(center, dtype=float), radius)

    def granularity(self):
        return self.grid.max_weight


# ---------------------------------------------------------------------------
# chart quadrature


@dataclass
class ChartSpec:
    """A parametric chart: axis-aligned box domain in R^m mapped into R^n.

    `mapping` takes parameters (N, m) to points (N, n).  `jacobian`, if given,
    returns (N, n, m) first derivatives; otherwise central differences are
    used.  Injectivity on the domain is the fixture author's responsibility.
    """

    domain: Sequence[tuple[float, float]]
    mapping: Callable[[np.ndarray], np.ndarray]
    quad_resolution: int = 256
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        res = self.quad_resolution
        if isinstance(res, bool) or not isinstance(res, numbers.Integral) or res < 1:
            raise ValueError(f"quad_resolution must be an integer >= 1, got {res!r}")

    def _numeric_jacobian(self, params: np.ndarray) -> np.ndarray:
        h = 1e-6
        m = params.shape[1]
        cols = []
        for j in range(m):
            dp = np.zeros_like(params)
            dp[:, j] = h
            cols.append((self.mapping(params + dp) - self.mapping(params - dp)) / (2 * h))
        return np.stack(cols, axis=2)

    def quadrature(self, resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Midpoint tensor-grid nodes mapped to R^n with m-volume weights.

        Also returns the largest physical extent of each cell, used to turn
        signed boundary margins into fractional cell coverage.
        """
        axes = []
        steps = []
        cell = 1.0
        for lo, hi in self.domain:
            ts = lo + (hi - lo) * (np.arange(resolution) + 0.5) / resolution
            axes.append(ts)
            steps.append((hi - lo) / resolution)
            cell *= (hi - lo) / resolution
        grids = np.meshgrid(*axes, indexing="ij")
        params = np.stack([g.ravel() for g in grids], axis=1)
        pts = self.mapping(params)
        jac = self.jacobian(params) if self.jacobian else self._numeric_jacobian(params)
        gram = np.einsum("nij,nik->njk", jac, jac)
        jm = np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
        col_norms = np.sqrt(np.einsum("nij,nij->nj", jac, jac))
        extent = (col_norms * np.asarray(steps)).max(axis=1)
        return pts, jm * cell, extent


class _AnchoredGrid:
    """Quadrature nodes with cell extents `ell`, or point masses (`ell` None,
    no margins), stored in stable-sort order of distance to an anchor center.

    `index` holds the original row of each stored row and `dist` the sorted
    distances to the anchor.  The grid is sorted about the first center it
    is asked about, and again only by `anchor_at`.  Every query about a
    center c with reach R reads only the stored prefix with anchor distance
    up to |c - anchor| + R, by the triangle inequality, and tests its rows
    as a pass over the whole grid would; a cull at the anchor is the prefix
    itself.  A cull returns the rows within reach ordered by (distance,
    original row), exactly as a stable argsort of the whole grid orders
    them; a sample query returns its rows in original order.
    """

    def __init__(self, pts, w, ell=None):
        self.pts, self.w, self.ell = pts, w, ell
        self.index = np.arange(len(w))
        self.dist = None
        self.anchor = None         # center bytes of the sort order
        self.anchor_point = None   # and its coordinates
        self.max_weight = float(w.max())
        # boundary cells carry fractional coverage up to half an extent
        # beyond their nodes
        self.pad = None if ell is None else 0.5 * float(ell.max())

    def _reach(self, radius: float) -> float:
        """Cull distance of a bounding ball: half a cell beyond it, or for point
        masses a relative slack of 1e-9 for a map's displacement bound."""
        return (1 + 1e-9) * radius if self.ell is None else radius + self.pad

    def anchor_at(self, center: np.ndarray) -> None:
        """Sort the rows about center now; a trace culls there many times."""
        key = center.tobytes()
        if key != self.anchor:
            self._sort(center)
            self.anchor, self.anchor_point = key, center.copy()

    def _original_order(self):
        """Stored position of each original row."""
        pos = np.empty_like(self.index)
        pos[self.index] = np.arange(len(pos))
        return pos

    def _sort(self, center):
        pos = self._original_order()
        dist = np.empty(len(pos))
        for i in range(0, len(pos), BLOCK):
            dist[i:i + BLOCK] = np.linalg.norm(self.pts[i:i + BLOCK] - center, axis=1)
        dist = dist[pos]
        order = np.argsort(dist, kind="stable")
        take = pos[order]
        self.pts = self.pts[take]
        self.w = self.w[take]
        if self.ell is not None:
            self.ell = self.ell[take]
        self.index, self.dist = order, dist[order]

    def _prefix(self, center, reach) -> int:
        """Length of the stored prefix that holds every row within reach of
        center; a grid not yet sorted is sorted about center first."""
        if self.anchor is None:
            self.anchor_at(center)
        offset = float(np.linalg.norm(center - self.anchor_point))
        # |x - anchor| <= |x - center| + |center - anchor|.  The slack covers
        # the rounding of the three computed distances (a few ulps each) and,
        # for sample queries, sorted norms against a squared-distance test;
        # at the anchor the offset is exactly 0.0.
        return int(np.searchsorted(self.dist, (offset + reach) * (1 + 1e-9), side="right"))

    def cull(self, region: Region):
        """The rows that may meet the region's bounding ball, by (distance,
        original row); all rows in original order if unbounded."""
        bb = region.bounding_ball()
        if bb is None:
            rows = self._original_order()
        else:
            center = np.asarray(bb[0], dtype=float)
            reach = self._reach(float(bb[1]))
            end = self._prefix(center, reach)
            if center.tobytes() == self.anchor:
                # the stored distances are the test: a plain slice
                rows = slice(0, np.searchsorted(self.dist, reach, side="right"))
            else:
                d = np.linalg.norm(self.pts[:end] - center, axis=1)
                pos = np.flatnonzero(d <= reach)
                rows = pos[np.lexsort((self.index[pos], d[pos]))]
        return self.pts[rows], self.w[rows], None if self.ell is None else self.ell[rows]

    def sum(self, region: Region) -> tuple[float, float]:
        """Mass of the region and its largest boundary-cell or kept weight."""
        pts, w, ell = self.cull(region)
        margin = None if ell is None else region.margin(pts)
        if margin is None:
            return _kept_sum(w, region.contains_many(pts))
        return _margin_sum(w, ell, margin)

    def trace(self, center, radii, queries, family: Family):
        """`sum` of each query of a trace about center, from one prefix.

        The grid is sorted about center at once.  A plain ball's cell
        margins come from one pass of distances over the rows of the
        largest reach, any other family's state from one `evaluate` there;
        each radius is then its own prefix of those rows.  A radius whose
        query culls about another center, has cell margins without being a
        plain ball, or keeps fewer than two rows goes through `sum`.
        """
        self.anchor_at(center)
        ends = []
        for q in queries:
            bb = q.bounding_ball()
            same = bb is not None and np.asarray(bb[0], dtype=float).tobytes() == self.anchor
            ends.append(int(np.searchsorted(self.dist, self._reach(float(bb[1])), side="right"))
                        if same else 0)
        X = self.pts[:max(ends, default=0)]
        cells = self.ell is not None
        state = norms = None
        out = []
        for r, q, end in zip(radii, queries, ends):
            if end < 2:
                # a one-row matrix product may round differently from a longer one
                out.append(self.sum(q))
            elif cells and isinstance(q, ClosedBall):
                if norms is None:
                    d = X - center
                    norms = np.sqrt(np.einsum("ij,ij->i", d, d))
                out.append(_margin_sum(self.w[:end], self.ell[:end], q.radius - norms[:end]))
            elif cells and q.margin(X[:0]) is not None:
                out.append(self.sum(q))
            else:
                if state is None:
                    state = family.evaluate(X, center)
                out.append(_kept_sum(self.w[:end], family.inside(state, r, end)))
        return out

    def in_ball(self, center: np.ndarray, radius: float):
        """Points and weights with |x - center|^2 <= radius^2, in original
        row order."""
        end = self._prefix(center, abs(radius))
        x = self.pts[:end] - center
        pos = np.flatnonzero(np.einsum("ij,ij->i", x, x) <= radius ** 2)
        rows = pos[np.argsort(self.index[pos])]
        return self.pts[rows], self.w[rows]


def _margin_sum(w, ell, margin) -> tuple[float, float]:
    """Mass with fractional coverage of boundary cells, and their largest weight.

    Fractional coverage, clip(1/2 + margin / ell, 0, 1), removes the O(h/r)
    indicator noise; cells fully inside or outside keep weight 1 or 0.
    """
    frac = margin / ell
    frac += 0.5
    np.clip(frac, 0.0, 1.0, out=frac)
    value = float(np.dot(w, frac))
    partial = frac > 0.0
    partial &= frac < 1.0
    # weights are nonnegative, so 0 stands for "no boundary cell"
    return value, float(np.max(w, where=partial, initial=0.0))


def _combine(fine, coarse) -> tuple[float, float]:
    """(value, error) from the fine and coarse grid sums."""
    value, floor = fine
    # the relative term absorbs rounding noise in the quadrature weights,
    # which is well above machine epsilon when the jacobian is numeric
    return value, abs(value - coarse[0]) + floor + 1e-11 * abs(value)


class ChartOracle(MeasureOracle):
    """Indicator quadrature over a list of charts with one-refinement error.

    The coarse (quad_resolution) and fine (2 quad_resolution) grids are built
    on the first `mass`, `samples_in_ball` or `granularity` call, so an
    oracle that is never queried costs one mapped domain corner, which gives
    `n`.  Each grid is an `_AnchoredGrid` of cells, whose culls keep every
    sum bit for bit that of a stable argsort of the whole grid.
    """

    def __init__(self, charts: Sequence[ChartSpec], m: int):
        if not charts:
            raise ValueError("no charts")
        self.charts = list(charts)
        self.m = m
        corner = np.array([[lo for lo, _ in self.charts[0].domain]], dtype=float)
        self.n = self.charts[0].mapping(corner).shape[1]
        self._built = None

    def _grids(self) -> tuple[_AnchoredGrid, _AnchoredGrid]:
        """(coarse, fine), built on first use."""
        if self._built is None:
            grids = []
            for scale in (1, 2):
                parts = [ch.quadrature(scale * ch.quad_resolution) for ch in self.charts]
                grids.append(_AnchoredGrid(*(np.concatenate(a, axis=0) for a in zip(*parts))))
            self._built = tuple(grids)
        return self._built

    def mass(self, region: Region) -> tuple[float, float]:
        coarse, fine = self._grids()
        return _combine(fine.sum(region), coarse.sum(region))

    def trace(self, center, radii, family: Family = BALL):
        """`mass` at each radius, from one anchored prefix per grid."""
        query = _queries(center, radii, family)
        coarse, fine = self._grids()
        return [_combine(f, c) for f, c in zip(fine.trace(*query, family),
                                               coarse.trace(*query, family))]

    def samples_in_ball(self, center, radius):
        return self._grids()[1].in_ball(np.asarray(center, dtype=float), radius)

    def granularity(self):
        return self._grids()[1].max_weight


# ---------------------------------------------------------------------------
# exact interval backend


@dataclass
class SegmentPiece:
    """A straight segment {p0 + t u : t in [t0, t1]} carrying H^1."""

    p0: np.ndarray
    u: np.ndarray   # unit direction
    t0: float
    t1: float

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        nu = float(np.linalg.norm(self.u))
        if abs(nu - 1.0) > 1e-12:
            self.u = self.u / nu


class IntervalOracle(MeasureOracle):
    """Exact H^1 of a finite union of segments, via the line-clipping engine.

    The pieces are stored as arrays, so each query is one engine call over
    the whole family.
    """

    def __init__(self, pieces: Sequence[SegmentPiece], n: int):
        pieces = list(pieces)
        self.p0 = np.array([p.p0 for p in pieces], dtype=float).reshape(-1, n)
        self.u = np.array([p.u for p in pieces], dtype=float).reshape(-1, n)
        self.t0 = np.array([p.t0 for p in pieces], dtype=float)
        self.t1 = np.array([p.t1 for p in pieces], dtype=float)
        self.m = 1
        self.n = n

    def mass(self, region: Region) -> tuple[float, float]:
        lo, hi = clip_segments(region, self.p0, self.u, self.t0, self.t1)
        lengths = (hi - lo).sum(axis=1)
        # a running total in piece order: a pairwise sum moves the last bit
        # of the dyadic density ratios
        return (float(np.cumsum(lengths)[-1]) if len(lengths) else 0.0), 0.0

    def _spread(self, rows, lo, hi, per: int):
        """`per` midpoint samples on the nonempty pieces of the given rows of a
        ball clip, which leaves one piece per segment, sample-index major."""
        lo, hi = lo[rows, 0], hi[rows, 0]
        full = hi > lo
        a, b = lo[full], hi[full]
        # a + (b - a) (i + 1/2) / per and p0 + t u, evaluated in place
        ts = (b - a) * (np.arange(per)[:, None] + 0.5)
        ts /= per
        ts += a
        pts = np.empty(ts.shape + (self.n,))
        for k in range(self.n):
            np.multiply(ts, self.u[rows, k][full], out=pts[..., k])
            pts[..., k] += self.p0[rows, k][full]
        w = (b - a) / per
        return pts.reshape(-1, self.n), np.tile(w, per)

    def samples_in_ball(self, center, radius, per_piece: int = 64):
        ball = ClosedBall(np.asarray(center, dtype=float), radius)
        lo, hi = clip_segments(ball, self.p0, self.u, self.t0, self.t1)
        return self._spread(slice(None), lo, hi, per_piece)

    def granularity(self):
        return 0.0
