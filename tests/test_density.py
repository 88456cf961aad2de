import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmtjet.cli import main
from gmtjet.density import (
    DYADIC_GAP_SCHEDULE,
    DYADIC_SCHEDULE,
    ScaleSchedule,
    blow_up_tangent,
    combine_statuses,
    cone_condition_check,
    decide_verdict,
    density_ratio,
    density_transfer_check,
    in_lower_tangent_cone,
    in_upper_tangent_cone,
    lower_density,
    upper_density,
)
from gmtjet.fixtures import make_fixture
from gmtjet.geometry import Cylinder, Plane
from gmtjet.measure import CloudOracle, WeightedCloud


@pytest.fixture(scope="module")
def line():
    return make_fixture("line")


@pytest.fixture(scope="module")
def dyadic():
    return make_fixture("dyadic_annuli")


@pytest.fixture(scope="module")
def parabola():
    return make_fixture("graph_poly", coeffs=(1.0, 0.0))


@pytest.fixture(scope="module")
def circle():
    return make_fixture("circle", R=1.0)


X_AXIS = Plane.axis(2, [0])
Y_AXIS = Plane.axis(2, [1])


# ---------------------------------------------------------------------------
# verdict rule on synthetic traces


def test_verdict_all_zero_is_limit_zero():
    r = np.zeros(24)
    assert decide_verdict(r, np.zeros(24), np.max) == ("limit_zero", 0.0)


def test_verdict_geometric_decay_is_limit_zero():
    r = 0.8 * 0.5 ** np.arange(24)
    verdict, est = decide_verdict(r, np.zeros(24), np.max)
    assert verdict == "limit_zero"
    assert est == 0.0


def test_verdict_constant_is_limit_positive():
    r = np.full(24, 0.5)
    verdict, est = decide_verdict(r, np.zeros(24), np.max)
    assert verdict == "limit_positive"
    assert abs(est - 0.5) <= 1e-12


def test_verdict_growth_is_diverges():
    r = 2.0 ** np.arange(24)
    verdict, _ = decide_verdict(r, np.zeros(24), np.min)
    assert verdict == "diverges"


def test_verdict_large_errors_are_inconclusive():
    r = np.full(24, 0.5)
    errs = np.full(24, 0.2)
    verdict, _ = decide_verdict(r, errs, np.max)
    assert verdict == "inconclusive"


def test_verdict_short_trace_is_inconclusive():
    r = np.zeros(10)
    assert decide_verdict(r, np.zeros(10), np.max)[0] == "inconclusive"


@settings(max_examples=50, deadline=None)
@given(level=st.floats(min_value=0.02, max_value=100.0))
def test_verdict_positive_level_recovered(level):
    r = np.full(24, level)
    verdict, est = decide_verdict(r, np.zeros(24), np.max)
    assert verdict == "limit_positive"
    assert abs(est - level) <= 1e-9 * level


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_verdict_is_scale_equivariant(scale, seed):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 2.0, size=24)
    errs = rng.uniform(0.0, 0.1, size=24)
    v1, _ = decide_verdict(r, errs, np.max)
    v2, _ = decide_verdict(scale * r, scale * errs, np.max)
    # the rule compares ratios to tol_zero, so only the zero verdict is
    # allowed to move across the threshold under rescaling
    if v1 not in ("limit_zero", "inconclusive"):
        assert v2 in (v1, "inconclusive")


# ---------------------------------------------------------------------------
# schedules


def test_schedule_radii_decrease():
    sched = ScaleSchedule()
    assert np.all(np.diff(sched.radii) < 0)


@pytest.mark.parametrize("kwargs", [
    dict(r0=0.0), dict(q=1.0), dict(q=0.0), dict(J=7),
    dict(r0=float("nan")), dict(r0=float("inf")),
    dict(q=1e-200),   # the smallest radius r0 q^(J-1) underflows to 0
])
def test_schedule_validation(kwargs):
    with pytest.raises(ValueError):
        ScaleSchedule(**kwargs)


def test_clip_noop_for_exact_oracle(line):
    sched = ScaleSchedule()
    assert sched.clip_for(line.oracle) is sched


def test_clip_drops_unreliable_scales():
    cloud = WeightedCloud(np.linspace(-1, 1, 41)[:, None], np.full(41, 1e-4))
    oracle = CloudOracle(cloud, m=1)
    clipped = ScaleSchedule().clip_for(oracle)
    assert clipped.J < ScaleSchedule().J
    assert clipped.radii[-1] >= 40 * 1e-4


def test_clip_factor_override():
    cloud = WeightedCloud(np.linspace(-1, 1, 41)[:, None], np.full(41, 1e-4))
    oracle = CloudOracle(cloud, m=1)
    relaxed = ScaleSchedule().clip_for(oracle, factor=4.0)
    strict = ScaleSchedule().clip_for(oracle)
    assert relaxed.J > strict.J


def test_clip_raises_when_too_coarse():
    cloud = WeightedCloud(np.zeros((1, 1)), np.array([10.0]))
    oracle = CloudOracle(cloud, m=1)
    with pytest.raises(ValueError):
        ScaleSchedule().clip_for(oracle)


# ---------------------------------------------------------------------------
# trace export


def test_trace_csv_shape(line, tmp_path):
    trace = upper_density(line.oracle, np.zeros(2), 1, line.schedule)
    report, out = tmp_path / "report.json", tmp_path / "trace.csv"
    report.write_text(json.dumps({"traces": [trace.to_dict()]}))
    assert main(["plot-data", "--trace", str(report), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,ratio,err"
    assert len(lines) == len(trace.entries) + 1
    r0 = float(lines[1].split(",")[0])
    assert r0 == trace.entries[0][0]


# ---------------------------------------------------------------------------
# densities on the dyadic annuli (exact oracle)


def test_dyadic_ratios_exact(dyadic):
    for i in range(2, 9):
        ratio, err = density_ratio(dyadic.oracle, np.zeros(1), 1, 2.0 ** (-2 * i - 1))
        assert err == 0.0
        assert abs(ratio - 1 / 3) <= 1e-9
        ratio, _ = density_ratio(dyadic.oracle, np.zeros(1), 1, 2.0 ** (-2 * i))
        assert abs(ratio - 2 / 3) <= 1e-9


def test_dyadic_density_verdicts(dyadic):
    up = upper_density(dyadic.oracle, np.zeros(1), 1, dyadic.schedule)
    lo = lower_density(dyadic.oracle, np.zeros(1), 1, dyadic.schedule)
    assert up.verdict == "limit_positive" and abs(up.estimate - 2 / 3) <= 1e-9
    assert lo.verdict == "limit_positive" and abs(lo.estimate - 1 / 3) <= 1e-9


def test_dyadic_upper_cone_is_everything(dyadic):
    for v in ([1.0], [-1.0], [0.0]):
        verdict = in_upper_tangent_cone(dyadic.oracle, np.zeros(1), 1,
                                        np.array(v), schedule=dyadic.schedule)
        assert verdict.status == "holds", v


def test_dyadic_lower_cone_is_only_zero(dyadic):
    # radii of the gap schedule land between the annuli, where the
    # translated balls around r*v are empty
    for v in ([1.0], [-1.0]):
        verdict = in_lower_tangent_cone(dyadic.oracle, np.zeros(1), 1,
                                        np.array(v), schedule=DYADIC_GAP_SCHEDULE)
        assert verdict.status == "fails", v
    verdict = in_lower_tangent_cone(dyadic.oracle, np.zeros(1), 1,
                                    np.zeros(1), schedule=DYADIC_GAP_SCHEDULE)
    assert verdict.status == "holds"


# ---------------------------------------------------------------------------
# cones on smooth fixtures


def test_line_cone_membership(line):
    a = np.zeros(2)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert in_upper_tangent_cone(line.oracle, a, 1, e1, schedule=line.schedule).status == "holds"
    assert in_lower_tangent_cone(line.oracle, a, 1, e1, schedule=line.schedule).status == "holds"
    assert in_upper_tangent_cone(line.oracle, a, 1, e2, schedule=line.schedule).status == "fails"
    assert in_lower_tangent_cone(line.oracle, a, 1, e2, schedule=line.schedule).status == "fails"


def test_cone_verdicts_scale_invariant_in_v(line):
    a = np.zeros(2)
    for v in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])):
        one = in_upper_tangent_cone(line.oracle, a, 1, v, schedule=line.schedule)
        two = in_upper_tangent_cone(line.oracle, a, 1, 2 * v, schedule=line.schedule)
        assert one.status == two.status


def test_lower_cone_contained_in_upper(line, dyadic):
    probes = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
              np.array([1.0, 1.0]) / math.sqrt(2)]
    for v in probes:
        lo = in_lower_tangent_cone(line.oracle, np.zeros(2), 1, v, schedule=line.schedule)
        if lo.status == "holds":
            up = in_upper_tangent_cone(line.oracle, np.zeros(2), 1, v, schedule=line.schedule)
            assert up.status == "holds"
    for v in (np.array([1.0]), np.array([-1.0]), np.zeros(1)):
        lo = in_lower_tangent_cone(dyadic.oracle, np.zeros(1), 1, v,
                                   schedule=DYADIC_GAP_SCHEDULE)
        if lo.status == "holds":
            up = in_upper_tangent_cone(dyadic.oracle, np.zeros(1), 1, v,
                                       schedule=dyadic.schedule)
            assert up.status == "holds"


def test_empty_aperture_grid_is_inconclusive():
    # with no aperture tested nothing can hold; eta_uniform_condition
    # reports "untested" for an aperture whose scales are too coarse
    assert combine_statuses([]) == "inconclusive"
    assert combine_statuses(["untested"] * 3) == "inconclusive"


def test_upper_cone_zero_vector_reduces_to_density(line):
    verdict = in_upper_tangent_cone(line.oracle, np.zeros(2), 1, np.zeros(2),
                                    schedule=line.schedule)
    assert verdict.status == "holds"
    trace = verdict.diagnostics["trace"]
    assert trace.verdict == "limit_positive"


# ---------------------------------------------------------------------------
# cone-condition equivalence


def test_parabola_cone_conditions(parabola):
    a = np.zeros(2)
    good = cone_condition_check(parabola.oracle, a, X_AXIS, schedule=parabola.schedule)
    bad = cone_condition_check(parabola.oracle, a, Y_AXIS, schedule=parabola.schedule)
    assert good[0].status == "holds" and good[1].status == "holds"
    assert bad[0].status == "fails" and bad[1].status == "fails"


def test_circle_cone_conditions(circle):
    a = circle.marked_points[0]
    tangent = Plane.axis(2, [1])
    normal = Plane.axis(2, [0])
    good = cone_condition_check(circle.oracle, a, tangent, schedule=circle.schedule)
    bad = cone_condition_check(circle.oracle, a, normal, schedule=circle.schedule)
    assert good[0].status == "holds" and good[1].status == "holds"
    assert bad[0].status == "fails" and bad[1].status == "fails"


def test_cone_conditions_agree(line, parabola, circle):
    cases = [
        (line.oracle, np.zeros(2), X_AXIS, line.schedule),
        (line.oracle, np.zeros(2), Y_AXIS, line.schedule),
        (parabola.oracle, np.zeros(2), X_AXIS, parabola.schedule),
        (parabola.oracle, np.zeros(2), Y_AXIS, parabola.schedule),
        (circle.oracle, circle.marked_points[0], Plane.axis(2, [1]), circle.schedule),
        (circle.oracle, circle.marked_points[0], Plane.axis(2, [0]), circle.schedule),
    ]
    for oracle, a, T, sched in cases:
        vii, viii = cone_condition_check(oracle, a, T, schedule=sched)
        assert vii.status == viii.status


# ---------------------------------------------------------------------------
# restriction monotonicity


def test_restriction_never_increases_density(line):
    half = Cylinder(X_AXIS, np.array([0.25, 0.0]), 0.25, math.inf)
    restricted = line.oracle.restrict(half)
    full = upper_density(line.oracle, np.zeros(2), 1, line.schedule)
    part = upper_density(restricted, np.zeros(2), 1, line.schedule)
    for (r1, v1, e1), (r2, v2, e2) in zip(full.entries, part.entries):
        assert r1 == r2
        assert v2 <= v1 + e1 + e2 + 1e-12


# ---------------------------------------------------------------------------
# density transfer


def test_transfer_holds_for_hoelder_tail(line):
    f = lambda X: np.abs(np.atleast_2d(X)[:, 0]) ** 1.5
    verdict = density_transfer_check(line.oracle, f, np.zeros(2), gamma=1.2,
                                     lam=1.0, M=0.2, schedule=line.schedule)
    assert verdict.status == "holds"


def test_transfer_holds_for_zero_function(line):
    f = lambda X: np.zeros(np.atleast_2d(X).shape[0])
    verdict = density_transfer_check(line.oracle, f, np.zeros(2), gamma=1.0,
                                     lam=0.5, M=0.1, schedule=line.schedule)
    assert verdict.status == "holds"


def test_transfer_precondition_failure(line):
    # everything violates the sublevel hypothesis, so density M is exceeded
    f = lambda X: np.ones(np.atleast_2d(X).shape[0])
    verdict = density_transfer_check(line.oracle, f, np.zeros(2), gamma=1.0,
                                     lam=1e-6, M=1e-3, schedule=line.schedule)
    assert verdict.status == "precondition_failed"
    assert verdict.diagnostics["hypothesis_ratio"] >= 1e-3


# ---------------------------------------------------------------------------
# blow-up tangent planes


def _assert_blow_up_plane(fx, want):
    out = blow_up_tangent(fx.oracle, fx.marked_points[0], 1, schedule=fx.schedule)
    assert out is not None
    plane, theta = out
    assert plane.distance_to(want) <= 1e-2
    assert abs(theta - 1.0) <= 0.05


def test_blow_up_on_line(line):
    _assert_blow_up_plane(line, X_AXIS)


def test_blow_up_on_circle(circle):
    _assert_blow_up_plane(circle, Y_AXIS)


@pytest.mark.parametrize("name", ["graph_poly", "parabola_touch"])
def test_blow_up_on_curved_graph(name):
    # curved charts whose marked point is the origin, tangent to the x-axis
    _assert_blow_up_plane(make_fixture(name), X_AXIS)


def test_blow_up_none_on_divergent_density():
    aag = make_fixture("a_alpha_gamma", gamma=2.0, alpha=0.75)
    assert blow_up_tangent(aag.oracle, np.zeros(2), 1, schedule=aag.schedule) is None
