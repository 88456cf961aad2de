import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmtjet.density import FnPositive
from gmtjet.fixtures import make_fixture
from gmtjet.geometry import (
    ClosedBall,
    Complement,
    Cone,
    Cylinder,
    FullSpace,
    Intersection,
    OpenBall,
    Plane,
    PlaneCone,
)
from gmtjet.measure import (
    ChartOracle,
    _AnchoredGrid,
    ChartSpec,
    CloudOracle,
    IntervalOracle,
    MappedOracle,
    MeasureOracle,
    SegmentPiece,
    WeightedCloud,
    clip_segments,
    read_cloud,
    unit_ball_volume,
    write_cloud,
)

RNG = np.random.default_rng(20240818)


def unit_segment_oracle():
    """H^1 on [0,1] x {0} in the plane, exact."""
    return IntervalOracle([SegmentPiece(np.zeros(2), np.array([1.0, 0.0]), 0.0, 1.0)], n=2)


def circle_chart(resolution=4096, analytic_jacobian=True):
    def mapping(params):
        th = params[:, 0]
        return np.stack([np.cos(th), np.sin(th)], axis=1)

    def jacobian(params):
        th = params[:, 0]
        return np.stack([-np.sin(th), np.cos(th)], axis=1)[:, :, None]

    return ChartSpec(domain=[(0.0, 2 * math.pi)], mapping=mapping,
                     quad_resolution=resolution,
                     jacobian=jacobian if analytic_jacobian else None)


# ---------------------------------------------------------------------------
# exact interval backend


def test_segment_total_and_ball_mass():
    oracle = unit_segment_oracle()
    assert oracle.mass(FullSpace()) == (1.0, 0.0)
    val, err = oracle.mass(ClosedBall(np.zeros(2), 0.5))
    assert err == 0.0
    assert abs(val - 0.5) <= 1e-12


def test_segment_annulus_mass():
    oracle = unit_segment_oracle()
    region = Intersection(ClosedBall(np.zeros(2), 0.75),
                          Complement(ClosedBall(np.zeros(2), 0.25)))
    val, _ = oracle.mass(region)
    assert abs(val - 0.5) <= 1e-12


def test_segment_cylinder_mass():
    oracle = unit_segment_oracle()
    cyl = Cylinder(Plane.axis(2, [1]), np.array([0.3, 0.0]), math.inf, 0.2)
    val, _ = oracle.mass(cyl)
    # vertical coordinate w.r.t. the y-axis plane is x, so |x - 0.3| < 0.2
    assert abs(val - 0.4) <= 1e-12


def test_cone_line_intervals_match_scan():
    cone = Cone(np.zeros(2), np.array([1.0, 0.0]), 0.5)
    for _ in range(50):
        p0 = RNG.uniform(-1, 1, size=2)
        u = RNG.standard_normal(2)
        u /= np.linalg.norm(u)
        lo, hi = clip_segments(cone, p0[None, :], u, [-2.0], [2.0])
        ts = np.linspace(-2, 2, 4001)
        inside = cone.contains_many(p0[None, :] + ts[:, None] * u[None, :])
        length = float(np.trapezoid(inside.astype(float), ts))
        assert abs(float((hi - lo).sum()) - length) <= 5e-3


def closed_form_regions(n):
    """Every region family with a closed-form clip, in R^n."""
    c = RNG.uniform(-0.5, 0.5, size=n)
    first = Plane.axis(n, [0])
    tilted = Plane.from_spanning(RNG.standard_normal((max(n - 1, 1), n)))
    v = RNG.standard_normal(n)
    v /= np.linalg.norm(v)
    return {
        "full": FullSpace(),
        "closed_ball": ClosedBall(c, 0.7),
        "open_ball": OpenBall(-c, 0.4),
        "cylinder": Cylinder(tilted, c, 0.6, 0.3),
        "slab": Cylinder(first, c, math.inf, 0.2),
        "tube": Cylinder(first, c, 0.5, math.inf),
        "cone": Cone(c, v, 0.4),
        "wide_cone": Cone(c, v, 1.5),
        "plane_cone": PlaneCone(tilted, c, 0.5),
        "outside_ball": Complement(ClosedBall(c, 0.5)),
        "outside_cone": Complement(Cone(-c, v, 0.3)),
        "ball_minus_plane_cone": Intersection(ClosedBall(c, 0.9),
                                              Complement(PlaneCone(first, c, 0.3))),
        "cylinder_and_cone": Intersection(Cylinder(tilted, c, 0.8, 0.5), Cone(c, -v, 0.6)),
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clip_engine_matches_dense_scan(n):
    # random segments plus exactly axis-parallel ones, through and beside
    # the regions
    count, cells = 60, 4000
    p0 = RNG.uniform(-1, 1, size=(count, n))
    u = RNG.standard_normal((count, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    for i in range(2 * n):
        u[i] = 0.0
        u[i, i % n] = 1.0 if i < n else -1.0
    t0 = -RNG.uniform(0.1, 1.5, size=count)
    t1 = RNG.uniform(0.1, 1.5, size=count)
    mids = t0[:, None] + (t1 - t0)[:, None] * (np.arange(cells) + 0.5) / cells
    pts = (p0[:, None, :] + mids[:, :, None] * u[:, None, :]).reshape(-1, n)
    for name, region in closed_form_regions(n).items():
        lo, hi = clip_segments(region, p0, u, t0, t1)
        assert np.all(t0[:, None] <= lo) and np.all(lo <= hi) and np.all(hi <= t1[:, None])
        for row_lo, row_hi in zip(lo, hi):
            full = row_hi > row_lo
            order = np.argsort(row_lo[full])
            assert np.all(row_lo[full][order][1:] >= row_hi[full][order][:-1] - 1e-12), name
        inside = region.contains_many(pts).reshape(count, cells)
        scan = inside.mean(axis=1) * (t1 - t0)
        assert np.allclose((hi - lo).sum(axis=1), scan, rtol=0,
                           atol=5 * float((t1 - t0).max()) / cells), name


def test_clip_engine_scan_budget():
    region = FnPositive(lambda X: X[:, 0])
    u = np.array([1.0, 0.0])
    lo, hi = clip_segments(region, np.zeros((1024, 2)), u, -np.ones(1024), np.ones(1024))
    assert np.allclose(lo, 0.0, atol=1e-12) and np.allclose(hi, 1.0)
    with pytest.raises(NotImplementedError, match="FnPositive"):
        clip_segments(region, np.zeros((1025, 2)), u, -np.ones(1025), np.ones(1025))


def test_graph_nbhd_intervals_via_bisection():
    # segment along (1,1)/sqrt(2); inside |y| <= x^2 exactly for t >= sqrt(2)
    region = FnPositive(lambda X: X[:, 0] ** 2 - np.abs(X[:, 1]))
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    piece = SegmentPiece(np.zeros(2), u, 0.0, 2 * math.sqrt(2))
    oracle = IntervalOracle([piece], n=2)
    val, err = oracle.mass(region)
    assert err == 0.0
    assert abs(val - math.sqrt(2)) <= 1e-9


def test_interval_samples_in_ball():
    oracle = unit_segment_oracle()
    pts, w = oracle.samples_in_ball(np.zeros(2), 0.5)
    assert abs(w.sum() - 0.5) <= 1e-12
    assert np.all(np.linalg.norm(pts, axis=1) <= 0.5 + 1e-12)
    assert oracle.granularity() == 0.0


# ---------------------------------------------------------------------------
# chart quadrature


def test_circle_mass_two_pi():
    oracle = ChartOracle([circle_chart()], m=1)
    val, err = oracle.mass(FullSpace())
    assert abs(val - 2 * math.pi) <= 1e-3
    assert abs(val - 2 * math.pi) <= 3 * err


def test_circle_numeric_jacobian_agrees():
    exact = ChartOracle([circle_chart(resolution=512)], m=1)
    numeric = ChartOracle([circle_chart(resolution=512, analytic_jacobian=False)], m=1)
    v1, _ = exact.mass(FullSpace())
    v2, _ = numeric.mass(FullSpace())
    assert abs(v1 - v2) <= 1e-6


def test_circle_right_half_arc():
    oracle = ChartOracle([circle_chart()], m=1)
    # points of the unit circle within sqrt(2) of (1,0) form the arc |theta| <= pi/2
    val, err = oracle.mass(ClosedBall(np.array([1.0, 0.0]), math.sqrt(2)))
    assert abs(val - math.pi) <= max(1e-2, 3 * err)


def test_sphere_area():
    def mapping(params):
        th, ph = params[:, 0], params[:, 1]
        return np.stack([np.sin(th) * np.cos(ph),
                         np.sin(th) * np.sin(ph),
                         np.cos(th)], axis=1)

    def jacobian(params):
        th, ph = params[:, 0], params[:, 1]
        d_th = np.stack([np.cos(th) * np.cos(ph),
                         np.cos(th) * np.sin(ph),
                         -np.sin(th)], axis=1)
        d_ph = np.stack([-np.sin(th) * np.sin(ph),
                         np.sin(th) * np.cos(ph),
                         np.zeros_like(th)], axis=1)
        return np.stack([d_th, d_ph], axis=2)

    chart = ChartSpec(domain=[(0.0, math.pi), (0.0, 2 * math.pi)],
                      mapping=mapping, jacobian=jacobian, quad_resolution=128)
    oracle = ChartOracle([chart], m=2)
    val, err = oracle.mass(FullSpace())
    assert abs(val - 4 * math.pi) <= 1e-2
    # hemisphere via an open half-space expressed as a vertical cylinder slab
    upper = Cylinder(Plane.axis(3, [0, 1]), np.array([0.0, 0.0, 1.0]), math.inf, 1.0)
    half, herr = oracle.mass(upper)
    assert abs(half - 2 * math.pi) <= max(1e-2, 3 * herr)


def test_chart_vs_interval_on_segment():
    def mapping(params):
        out = np.zeros((params.shape[0], 2))
        out[:, 0] = params[:, 0]
        return out

    chart = ChartSpec(domain=[(0.0, 1.0)], mapping=mapping, quad_resolution=2048)
    approx = ChartOracle([chart], m=1)
    exact = unit_segment_oracle()
    for _ in range(20):
        c = RNG.uniform(-0.2, 1.2, size=2) * np.array([1.0, 0.1])
        r = RNG.uniform(0.05, 0.8)
        region = ClosedBall(c, r)
        va, ea = approx.mass(region)
        ve, _ = exact.mass(region)
        assert abs(va - ve) <= 3 * ea + 1e-12


class FullGridChart:
    """Chart quadrature that culls by a stable argsort of the whole grid and
    gathers, and scans the whole fine grid for samples: the reference the
    anchored grids of ChartOracle must reproduce bit for bit."""

    def __init__(self, charts):
        self.grids = [tuple(np.concatenate(a, axis=0) for a in zip(
            *(ch.quadrature(scale * ch.quad_resolution) for ch in charts)))
            for scale in (1, 2)]

    @staticmethod
    def _grid_sum(grid, region):
        bb = region.bounding_ball()
        if bb is not None:
            d = np.linalg.norm(grid[0] - np.asarray(bb[0], dtype=float), axis=1)
            order = np.argsort(d, kind="stable")
            reach = float(bb[1]) + 0.5 * float(grid[2].max())
            idx = order[:np.searchsorted(d[order], reach, side="right")]
            grid = tuple(arr[idx] for arr in grid)
        pts, w, ell = grid
        margin = region.margin(pts)
        if margin is None:
            keep = region.contains_many(pts)
            return float(w[keep].sum()), float(w[keep].max()) if keep.any() else 0.0
        frac = np.clip(0.5 + margin / ell, 0.0, 1.0)
        partial = (frac > 0.0) & (frac < 1.0)
        return float(np.dot(w, frac)), float(w[partial].max()) if partial.any() else 0.0

    def mass(self, region):
        value, floor = self._grid_sum(self.grids[1], region)
        coarse, _ = self._grid_sum(self.grids[0], region)
        return value, abs(value - coarse) + floor + 1e-11 * abs(value)

    def samples_in_ball(self, center, radius):
        fp, fw, _ = self.grids[1]
        d = fp - np.asarray(center, dtype=float)
        keep = np.einsum("ij,ij->i", d, d) <= radius ** 2
        return fp[keep], fw[keep]


def _assert_same_answers(oracle, reference, regions, samples):
    """Equal masses of the regions, and equal samples of the balls after each
    region, or once when there is no region."""
    for region in regions or [None]:
        if region is not None:
            assert oracle.mass(region) == reference.mass(region)
        for c, r in samples:
            got, want = oracle.samples_in_ball(c, r), reference.samples_in_ball(c, r)
            assert all(np.array_equal(g, w_) for g, w_ in zip(got, want))


def _nodes_at_reach(reference, anchor, count):
    """Probe queries with a fine node exactly at their reach: centers halfway
    between the anchor and a node, where the node's anchor distance is the
    probe's offset plus its reach, up to rounding.  Returns (cull regions,
    sample balls)."""
    pts, _, ell = reference.grids[1]
    pad = 0.5 * float(ell.max())
    x = pts[np.linalg.norm(pts - anchor, axis=1) > 0.2]
    x = x[np.linspace(0, len(x) - 1, count).astype(int)]
    centers = anchor + 0.5 * (x - anchor)
    d = np.linalg.norm(x - centers, axis=1)
    regions = []
    for c, dist in zip(centers, d):
        # a bounding radius whose reach, radius + pad, is the node's distance
        for radius in (dist - pad, np.nextafter(dist - pad, 0), np.nextafter(dist - pad, 2)):
            if radius + pad == dist:
                regions.append(ClosedBall(c, float(radius)))
                break
    y = x - centers
    radii = np.sqrt(np.einsum("ij,ij->i", y, y))
    return regions, list(zip(centers, radii))


def test_anchored_chart_matches_full_grid_cull():
    charts = make_fixture("sphere", resolution=48).oracle.charts
    oracle, reference = ChartOracle(charts, m=2), FullGridChart(charts)
    pole = np.array([0.0, 0.0, 1.0])
    side = np.array([0.3, -0.2, math.sqrt(1 - 0.13)])
    v, eps = np.array([1.0, 0.0, 0.0]), 0.3
    # the grid's latitude rings put many nodes at exactly equal distances from
    # the pole, so the cull order rests on the tie-break by original row
    x = reference.grids[1][0] - pole
    d = np.linalg.norm(x, axis=1)
    assert len(np.unique(d)) < len(d) // 10
    # a sample radius through nodes that the squared-distance test keeps
    kept = np.sort(d[np.einsum("ij,ij->i", x, x) <= d ** 2])
    ring = float(kept[len(kept) // 2])

    def ball(c, r):
        return ClosedBall(c, r)

    def lower_cone(r):
        return Intersection(ClosedBall(pole, (1 + eps) * r), OpenBall(pole + r * v, eps * r))

    queries = (
        [ball(pole, r) for r in (0.9, 0.5, 0.25, 0.5)]               # anchor at the pole
        + [lower_cone(r) for r in (0.6, 0.3, 0.15, 0.08, 0.04)]       # one-off centers
        + [ball(side, 0.4), ball(pole, 0.4)] * 2                      # alternation
        + [ball(side, 0.5), ball(side, 0.3), ball(side, 0.7)]         # repeated off-anchor
        + [ball(pole, 0.35), ball(pole, 0.2), ball(pole, 0.6)]        # and back
        + [FullSpace(), Complement(ClosedBall(pole, 0.5))]            # unbounded
        + [Intersection(ClosedBall(side, 0.6), FnPositive(lambda X: X[:, 0] - 0.1))]
    )
    # probes a few radii from the anchor with doubling radii, as
    # pointwise._nearest_samples asks them
    probes = [(pole + np.array([0.1, 0.05, 0.2]), 0.05), (pole + np.array([0.1, 0.05, 0.2]), 0.2),
              (pole + np.array([-0.3, 0.2, 0.1]), 0.4), (side, 0.45)]
    samples = [(pole, 0.3), (pole, ring), (pole, 2.5)] + probes
    _assert_same_answers(oracle, reference, queries, samples)
    assert oracle.granularity() == float(reference.grids[1][1].max())
    # nodes exactly at the reach of queries about other centers
    regions, balls = _nodes_at_reach(reference, pole, 40)
    assert len(regions) > 20
    _assert_same_answers(oracle, reference, regions, balls)
    for grid in oracle._grids():
        assert grid.anchor == pole.tobytes()
    # fresh grids whose first query is an off-anchor cull or a sample query
    for first in ([lower_cone(0.3)], [FullSpace(), ball(side, 0.5)]):
        fresh = ChartOracle(charts, m=2)
        _assert_same_answers(fresh, reference, first + queries[:12], probes)
    fresh = ChartOracle(charts, m=2)
    _assert_same_answers(fresh, reference, [], probes)
    _assert_same_answers(fresh, reference, queries[:12] + regions[:10], balls[:10])


def test_chart_grid_sorts_at_first_query_and_at_anchor_at(monkeypatch):
    sorts = []
    sort = _AnchoredGrid._sort

    def counted(self, center):
        sorts.append((len(self.w), tuple(center)))
        return sort(self, center)

    monkeypatch.setattr(_AnchoredGrid, "_sort", counted)
    oracle = ChartOracle(make_fixture("sphere", resolution=24).oracle.charts, m=2)
    pole, side = (0.0, 0.0, 1.0), (0.6, 0.0, 0.8)
    oracle.samples_in_ball(np.array(side), 0.2)
    for _ in range(3):
        for c in (pole, side):
            oracle.mass(ClosedBall(np.array(c), 0.3))
            oracle.samples_in_ball(np.array(c), 0.1)
    coarse, fine = (len(grid.w) for grid in oracle._grids())
    # a sample query sorts only the fine grid; the first cull sorts the coarse
    assert sorts == [(fine, side), (coarse, pole)]
    oracle.trace(np.array(pole), [0.3, 0.2])
    oracle.mass(ClosedBall(np.array(side), 0.3))
    assert sorts == [(fine, side), (coarse, pole), (fine, pole)]


def test_chart_oracle_builds_no_grid_until_queried(monkeypatch):
    built = []
    quadrature = ChartSpec.quadrature

    def counted(self, resolution):
        built.append(resolution)
        return quadrature(self, resolution)

    monkeypatch.setattr(ChartSpec, "quadrature", counted)
    fx = make_fixture("torus")
    assert built == []
    assert fx.oracle.n == 3


@pytest.mark.parametrize("resolution", [0, -3, 2.5, True, "8"])
def test_chart_spec_rejects_bad_resolution(resolution):
    with pytest.raises(ValueError):
        circle_chart(resolution=resolution)


# ---------------------------------------------------------------------------
# point clouds and the file format


def test_cloud_round_trip():
    cloud = WeightedCloud(RNG.standard_normal((40, 3)), RNG.uniform(0.1, 1.0, 40))
    buf = io.StringIO()
    write_cloud(cloud, m=2, path_or_fp=buf)
    buf.seek(0)
    back, m = read_cloud(buf)
    assert m == 2
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.weights, cloud.weights)


def test_cloud_format_rejects_bad_header():
    with pytest.raises(ValueError):
        read_cloud(io.StringIO("nope n=2 m=1\n1.0 0.0 0.0\n"))


def test_cloud_format_rejects_short_record():
    with pytest.raises(ValueError):
        read_cloud(io.StringIO("#gmt-cloud n=3 m=1\n1.0 0.0 0.0\n"))


def test_cloud_format_skips_comments(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("#gmt-cloud n=2 m=1\n# a comment\n0.5 1.0 2.0\n\n0.25 3.0 4.0\n")
    cloud, m = read_cloud(str(path))
    assert m == 1
    assert cloud.points.shape == (2, 2)
    assert cloud.weights.tolist() == [0.5, 0.25]


def test_cloud_mass_and_granularity():
    cloud = WeightedCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                          np.array([1.0, 2.0, 4.0]))
    oracle = CloudOracle(cloud, m=1)
    val, err = oracle.mass(ClosedBall(np.zeros(2), 1.5))
    assert val == 3.0
    assert err == 2.0
    assert oracle.granularity() == 4.0
    assert oracle.mass(ClosedBall(np.array([10.0, 0.0]), 0.1)) == (0.0, 0.0)


def test_cloud_complement_additivity():
    cloud = WeightedCloud(RNG.standard_normal((200, 2)), RNG.uniform(0, 1, 200))
    oracle = CloudOracle(cloud, m=1)
    ball = OpenBall(np.zeros(2), 1.0)
    inside, _ = oracle.mass(ball)
    outside, _ = oracle.mass(Complement(ball))
    assert abs(inside + outside - oracle.mass(FullSpace())[0]) <= 1e-10


class FullScanCloud(MeasureOracle):
    """Point masses that test every point on every query: the reference the
    anchored grid of CloudOracle must reproduce, bit for bit when every sum
    of weights is exact."""

    def __init__(self, cloud, m):
        self.cloud, self.m, self.n = cloud, m, cloud.points.shape[1]

    def mass(self, region):
        kept = self.cloud.weights[region.contains_many(self.cloud.points)]
        return float(kept.sum()), (float(kept.max()) if len(kept) else 0.0)

    def samples_in_ball(self, center, radius):
        d = self.cloud.points - np.asarray(center, dtype=float)
        keep = np.einsum("ij,ij->i", d, d) <= radius ** 2
        return self.cloud.points[keep], self.cloud.weights[keep]

    def granularity(self):
        return float(self.cloud.weights.max())


def dyadic_lattice_cloud():
    """The lattice (Z/4)^3 in [-1.5, 1.5]^3 in shuffled order, with weights in
    {1, ..., 8} / 64: every sum of weights is exact in any order, and many
    points lie exactly on spheres about lattice centers."""
    rng = np.random.default_rng(7)
    axis = np.arange(-6, 7) / 4
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    return WeightedCloud(pts[rng.permutation(len(pts))], rng.integers(1, 9, len(pts)) / 64)


def _shear(X):
    X = np.atleast_2d(X).copy()
    X[:, 2] += 0.5 * X[:, 0] ** 2
    return X


def _shear_bound(center, radius):
    """|_shear(x) - x| over the preimage of B(center, radius), whose first
    coordinates lie within radius of center's."""
    return 0.5 * (abs(float(center[0])) + radius) ** 2


def test_cloud_grid_matches_full_scan():
    cloud = dyadic_lattice_cloud()
    oracle, reference = CloudOracle(cloud, m=2), FullScanCloud(cloud, m=2)
    anchor, side, loose = np.zeros(3), np.array([0.5, 0.25, -0.75]), np.array([0.1, 0.2, 0.3])
    # lattice points lie exactly at radii 0.25 to 1.25 about lattice centers
    radii = [1.25, 1.0, 0.75, 0.5, 0.25, 0.1]
    regions = ([ClosedBall(anchor, 1.0)]                                  # anchor at the origin
               + [ball(c, r) for c in (anchor, side, loose, anchor) for r in radii
                  for ball in (ClosedBall, OpenBall)]
               + [ClosedBall(anchor, 3.0), FullSpace(), Complement(ClosedBall(side, 0.75)),
                  Complement(OpenBall(anchor, 1.0))])
    balls = [(c, r) for c in (anchor, side, loose) for r in radii] + [(side, 3.0)]
    # the closed ball keeps the points at its radius, the open one drops them
    assert oracle.mass(ClosedBall(side, 0.75))[0] > oracle.mass(OpenBall(side, 0.75))[0]
    assert oracle.mass(ClosedBall(anchor, 1.0))[0] > oracle.mass(OpenBall(anchor, 1.0))[0]
    _assert_same_answers(oracle, reference, regions, balls)
    assert oracle.granularity() == reference.granularity()
    cone = Cone(anchor, np.array([0.0, 0.0, 1.0]), 0.5)
    views = [(oracle, reference),
             (oracle.restrict(cone), reference.restrict(cone)),
             (MappedOracle(oracle, _shear, _shear_bound),
              MappedOracle(reference, _shear, _shear_bound))]
    for view, ref in views:
        _assert_same_answers(view, ref, regions, balls)
        for c in (anchor, side, loose):
            assert view.trace(c, radii) == ref.trace(c, radii)
    # fresh grids whose first query is off the origin, unbounded or a sample
    for first in ([ClosedBall(side, 0.5)], [FullSpace()]):
        fresh = CloudOracle(cloud, m=2)
        _assert_same_answers(fresh, reference, first + regions, balls)
    fresh = CloudOracle(cloud, m=2)
    _assert_same_answers(fresh, reference, [], balls[::-1])
    _assert_same_answers(fresh, reference, regions, balls)


def test_cloud_small_ball_tests_few_points(monkeypatch):
    tested = []
    contains_many = ClosedBall.contains_many

    def counted(self, X):
        tested.append(len(X))
        return contains_many(self, X)

    monkeypatch.setattr(ClosedBall, "contains_many", counted)
    cloud = dyadic_lattice_cloud()
    oracle = CloudOracle(cloud, m=2)
    for c in (np.zeros(3), np.array([0.5, 0.25, -0.75])):
        assert oracle.mass(ClosedBall(c, 0.3))[0] > 0
    # a lattice point and its six neighbours at 0.25, about either center
    assert tested == [7, 7]


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(0.05, 2.0))
def test_mass_monotone_in_radius(r1, r2):
    cloud = WeightedCloud(np.linspace([-1, -1], [1, 1], 50), np.full(50, 0.1))
    oracle = CloudOracle(cloud, m=1)
    small, big = sorted([r1, r2])
    vs, _ = oracle.mass(ClosedBall(np.zeros(2), small))
    vb, _ = oracle.mass(ClosedBall(np.zeros(2), big))
    assert vs <= vb + 1e-12


# ---------------------------------------------------------------------------
# restriction


def test_restriction_halves_segment():
    oracle = unit_segment_oracle()
    right = oracle.restrict(ClosedBall(np.array([1.0, 0.0]), 0.5))
    assert abs(right.mass(FullSpace())[0] - 0.5) <= 1e-12
    val, _ = right.mass(ClosedBall(np.zeros(2), 0.6))
    assert abs(val - 0.1) <= 1e-12


def test_double_restriction_matches_intersection():
    oracle = unit_segment_oracle()
    r1 = ClosedBall(np.array([0.0, 0.0]), 0.8)
    r2 = ClosedBall(np.array([1.0, 0.0]), 0.7)
    twice = oracle.restrict(r1).restrict(r2)
    once = oracle.restrict(Intersection(r1, r2))
    for _ in range(10):
        region = ClosedBall(RNG.uniform(-0.5, 1.5, size=2), RNG.uniform(0.1, 1.0))
        assert abs(twice.mass(region)[0] - once.mass(region)[0]) <= 1e-12


def test_restricted_samples_filtered():
    oracle = unit_segment_oracle()
    right = oracle.restrict(ClosedBall(np.array([1.0, 0.0]), 0.5))
    pts, w = right.samples_in_ball(np.array([0.5, 0.0]), 10.0)
    assert np.all(pts[:, 0] >= 0.5 - 1e-9)
    assert abs(w.sum() - 0.5) <= 1e-2


def test_unit_ball_volume_values():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)
