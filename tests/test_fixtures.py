import json
import math

import numpy as np
import pytest
from scipy.special import zeta

from gmtjet.density import density_ratio, lower_density, upper_density
from gmtjet.fixtures import CATALOG, ground_truth_report, make_fixture, point_key
from gmtjet.geometry import ClosedBall, FullSpace
from gmtjet.measure import UnionOracle


@pytest.fixture(scope="module")
def aag():
    return make_fixture("a_alpha_gamma", gamma=2.0, alpha=0.75)


@pytest.fixture(scope="module")
def torus():
    # chart answers do not depend on query history, so the tests share one
    # build of the default grid
    return make_fixture("torus")


# ---------------------------------------------------------------------------
# catalog plumbing


def test_every_catalog_entry_builds():
    for name in CATALOG:
        fx = make_fixture(name)
        assert fx.name == name
        assert len(fx.marked_points) >= 1
        for p in fx.marked_points:
            assert point_key(p) in fx.ground_truth


def test_unknown_fixture_raises():
    with pytest.raises(KeyError):
        make_fixture("klein_bottle")


def test_point_key_rounds():
    assert point_key([1.0000000000000004, 0.0]) == point_key([1.0, 0.0])


def test_ground_truth_report_serializes():
    for name in ("line", "dyadic_annuli", "circle"):
        report = ground_truth_report(make_fixture(name))
        back = json.loads(json.dumps(report, sort_keys=True))
        assert back == json.loads(json.dumps(report, sort_keys=True))
        assert back["name"] == name
        assert len(back["points"]) >= 1


def test_sample_cloud_is_finite():
    cloud = make_fixture("line").sample_cloud()
    assert np.all(np.isfinite(cloud.points))
    assert np.all(cloud.weights > 0)
    assert abs(cloud.weights.sum() - 4.0) <= 1e-9


def test_sample_cloud_passes_per_piece_and_propagates_errors():
    line = make_fixture("line")
    sample = line.oracle.samples_in_ball
    asked = []

    def samples_in_ball(center, radius, per_piece=64):
        asked.append(per_piece)
        if per_piece == 32768:
            raise TypeError("a fault inside the oracle")
        return sample(center, radius, per_piece=per_piece)

    line.oracle.samples_in_ball = samples_in_ball
    assert len(line.sample_cloud(per_piece=8).weights) == 8
    with pytest.raises(TypeError, match="a fault inside the oracle"):
        line.sample_cloud(per_piece=32768)
    assert asked == [8, 32768]


# ---------------------------------------------------------------------------
# total masses against closed forms


def test_dyadic_total_mass():
    oracle = make_fixture("dyadic_annuli").oracle
    val, err = oracle.mass(FullSpace())
    assert err == 0.0
    # 2 * sum_i (2^-2i - 2^-2i-1) = sum_i 4^-i = 4/3
    assert abs(val - 4 / 3) <= 1e-12


def test_aag_total_mass(aag):
    val, err = aag.oracle.mass(ClosedBall(np.zeros(2), 8.0))
    expected = 2.0 + 2.0 * zeta(1.5, 1)
    assert abs(val - expected) <= max(3 * err, 1e-6)


def test_circle_total_mass():
    oracle = make_fixture("circle", R=1.0).oracle
    val, _ = oracle.mass(FullSpace())
    assert abs(val - 2 * math.pi) <= 1e-3


def test_sphere_total_mass():
    oracle = make_fixture("sphere", R=1.0).oracle
    val, _ = oracle.mass(FullSpace())
    assert abs(val - 4 * math.pi) <= 1e-2


def test_torus_total_mass(torus):
    fx = torus
    R, r = fx.params["R"], fx.params["r"]
    val, err = fx.oracle.mass(FullSpace())
    assert abs(val - 4 * math.pi ** 2 * R * r) <= max(3 * err, 1e-2)


# ---------------------------------------------------------------------------
# parameter validation


@pytest.mark.parametrize("kwargs", [
    dict(gamma=1.0, alpha=0.75),
    dict(gamma=2.0, alpha=0.4),     # below 1/gamma
    dict(gamma=2.0, alpha=1.2),     # above 1/(gamma-1)
])
def test_aag_param_validation(kwargs):
    with pytest.raises(ValueError):
        make_fixture("a_alpha_gamma", **kwargs)


def test_noisy_parabola_param_validation():
    with pytest.raises(ValueError):
        make_fixture("noisy_parabola", k=0)


@pytest.mark.parametrize("name,kwargs", [
    ("circle", dict(R=0.0)),
    ("sphere", dict(R=-1.0)),
])
def test_positive_radius_validation(name, kwargs):
    with pytest.raises(ValueError):
        make_fixture(name, **kwargs)


@pytest.mark.parametrize("name,kwargs", [
    ("circle", dict(R=math.nan)),
    ("circle", dict(R=math.inf)),
    ("graph_poly", dict(coeffs=(math.nan, 0.0))),
    ("graph_poly", dict(coeffs=(1.0, -math.inf))),
    ("dyadic_annuli", dict(depth=math.inf)),
    ("comb", dict(n_teeth=math.inf)),
])
def test_non_finite_param_validation(name, kwargs):
    with pytest.raises(ValueError, match="not finite"):
        make_fixture(name, **kwargs)


# ---------------------------------------------------------------------------
# the hairy segment A_{alpha,gamma}


def test_aag_density_bound_from_hair_masses(aag):
    # at r = (n-1)^-alpha the ball contains all hairs with index >= n, whose
    # total height exceeds the integral tail bound, so the density ratio
    # beats (n-1)^alpha (alpha gamma - 1)^-1 n^(1 - alpha gamma) / 2
    alpha, gamma = 0.75, 2.0
    ag = alpha * gamma
    for n in range(10, 101):
        r = (n - 1) ** -alpha
        ratio, err = density_ratio(aag.oracle, np.zeros(2), 1, r)
        bound = (n - 1) ** alpha * n ** (1 - ag) / (ag - 1) / 2
        assert ratio - err > bound, n


def test_aag_density_diverges(aag):
    lo = lower_density(aag.oracle, np.zeros(2), 1, aag.schedule.clip_for(aag.oracle))
    assert lo.verdict == "diverges"


def test_aag_distance_function(aag):
    # on the segment, on a hair, and off the set
    assert aag.distance(np.array([0.5, 0.0])) <= 1e-12
    x1 = 5.0 ** -0.75
    assert aag.distance(np.array([x1, 5.0 ** -1.5])) <= 1e-12
    # nearest hair is n=2 at x = 2^-0.75 ~ 0.5946 with height 0.354
    assert abs(aag.distance(np.array([0.5, 0.3])) - (2 ** -0.75 - 0.5)) <= 1e-9


# ---------------------------------------------------------------------------
# the comb


def test_comb_cloud_has_four_samples_per_tooth():
    comb = make_fixture("comb")
    cloud = comb.sample_cloud(per_piece=32768)
    assert len(cloud.weights) == 4 * (comb.params["n_teeth"] + 1)
    assert abs(cloud.weights.sum() - (comb.params["n_teeth"] + 1)) <= 1e-6


def test_comb_lower_density_positive():
    comb = make_fixture("comb")
    a = comb.marked_points[0]
    lo = lower_density(comb.oracle, a, 1, comb.schedule)
    assert lo.verdict == "limit_positive"
    assert lo.estimate > 1.0


# ---------------------------------------------------------------------------
# smooth graphs: distance functions and analytic jets


def test_parabola_distance_function():
    fx = make_fixture("graph_poly", coeffs=(1.0, 0.0))
    for x in (-0.5, 0.0, 0.3, 0.9):
        on = np.array([x, x ** 2 / 2])
        assert fx.distance(on) <= 1e-6
    # for y = x^2/2 the closest point to (0, 1) is the vertex itself
    assert abs(fx.distance(np.array([0.0, 1.0])) - 1.0) <= 1e-6


def test_graph_jet_matches_mapping():
    fx = make_fixture("graph_poly", coeffs=(0.5, 2.0))
    jet = fx.jets[point_key(np.zeros(2))]
    for x in (0.05, -0.08):
        val = jet(np.array([x, 0.0]))
        y = 0.5 * x ** 2 / 2 + 2.0 * x ** 3 / 6
        assert abs(val[1] - y) <= 1e-12
        assert abs(val[0]) <= 1e-12


def test_circle_jet_matches_arc():
    fx = make_fixture("circle", R=2.0)
    a = fx.marked_points[0]
    jet = fx.jets[point_key(a)]
    for th in (0.05, -0.03):
        p = 2.0 * np.array([math.cos(th), math.sin(th)])
        chi = np.array([0.0, p[1]])
        val = jet(chi)
        # second-order contact: gap O(chi^3)
        assert abs((a + chi + val - p)[0]) <= abs(p[1]) ** 3


def test_parabola_touch_scenarios_listed():
    fx = make_fixture("parabola_touch")
    gt = fx.ground_truth[point_key(np.zeros(2))]
    scenarios = gt["touching"]
    rs = sorted(s["r"] for s in scenarios)
    assert rs == [0.9, 0.9, 1.0, 1.1]


# ---------------------------------------------------------------------------
# noisy parabola


def test_noisy_parabola_shell_weights():
    fx = make_fixture("noisy_parabola", k=2)
    assert isinstance(fx.oracle, UnionOracle)
    r = fx.schedule.radii[8]
    pts, w = fx.oracle.samples_in_ball(np.array([0.7 * r, 0.4 * r]), 1e-9)
    assert len(pts) == 1
    assert abs(w[0] - 2 * r ** 4) <= 1e-15


def test_noisy_parabola_weights_below_chart_granularity():
    # the noise must not coarsen the union granularity, or schedule clipping
    # would reject every scale
    fx = make_fixture("noisy_parabola", k=2)
    chart, noise = fx.oracle.parts
    assert noise.granularity() <= chart.granularity()


def test_noisy_parabola_distance_sees_noise():
    fx = make_fixture("noisy_parabola", k=2)
    r = fx.schedule.radii[6]
    assert fx.distance(np.array([0.7 * r, 0.4 * r])) <= 1e-12


# ---------------------------------------------------------------------------
# ground-truth density verdicts on the surfaces


def test_sphere_density_at_pole():
    fx = make_fixture("sphere", R=1.0)
    a = fx.marked_points[0]
    sched = fx.schedule.clip_for(fx.oracle)
    lo = lower_density(fx.oracle, a, 2, sched)
    up = upper_density(fx.oracle, a, 2, sched)
    assert lo.verdict == "limit_positive" and abs(lo.estimate - 1.0) <= 1e-2
    assert up.verdict == "limit_positive" and abs(up.estimate - 1.0) <= 1e-2


def test_torus_density_at_outer_equator(torus):
    fx = torus
    a = fx.marked_points[0]
    sched = fx.schedule.clip_for(fx.oracle)
    lo = lower_density(fx.oracle, a, 2, sched)
    assert lo.verdict == "limit_positive" and abs(lo.estimate - 1.0) <= 2e-2
