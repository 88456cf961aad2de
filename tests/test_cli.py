import csv
import json

import numpy as np
import pytest

from gmtjet import cli
from gmtjet.cli import main
from gmtjet.measure import read_cloud


# ---------------------------------------------------------------------------
# fixture subcommand


def test_fixture_list(capsys):
    assert main(["fixture", "list"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert len(names) >= 8
    assert "dyadic_annuli" in names and "torus" in names


def test_fixture_emit_roundtrip(tmp_path):
    out = str(tmp_path / "dy.cloud")
    assert main(["fixture", "emit", "dyadic_annuli", "--out", out]) == 0
    with open(out) as fp:
        assert fp.readline().strip() == "#gmt-cloud n=1 m=1"
    cloud, m = read_cloud(out)
    assert m == 1 and len(cloud.weights) > 0
    gt = json.load(open(out + ".gt.json"))
    assert gt["name"] == "dyadic_annuli"


def test_fixture_emit_unknown_name(tmp_path, capsys):
    code = main(["fixture", "emit", "nonesuch", "--out", str(tmp_path / "x")])
    assert code == 2


def test_fixture_emit_bad_alpha(tmp_path, capsys):
    code = main(["fixture", "emit", "a_alpha_gamma", "--param", "alpha=0.2",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "alpha in (0.5, 1)" in capsys.readouterr().err


def test_fixture_emit_unknown_param(tmp_path, capsys):
    out = tmp_path / "x.cloud"
    code = main(["fixture", "emit", "graph_poly", "--param", "coef=0.5,2",
                 "--out", str(out)])
    assert code == 2
    assert "'coef'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["circle", "sphere"])
@pytest.mark.parametrize("resolution", ["0", "-3", "2.5"])
def test_fixture_emit_bad_resolution(tmp_path, capsys, name, resolution):
    out = tmp_path / "x"
    code = main(["fixture", "emit", name, "--param", f"resolution={resolution}",
                 "--out", str(out)])
    assert code == 2
    assert "quad_resolution" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# analyze


def analyze(tmp_path, *extra):
    out = str(tmp_path / "report.json")
    code = main(["analyze", "--out", out, *extra])
    report = json.load(open(out)) if code in (0, 1, 3) else None
    return code, report


def test_analyze_parabola(tmp_path):
    code, report = analyze(tmp_path, "--input", "fixture:graph_poly",
                           "--point", "0,0", "--order", "2")
    assert code == 0
    assert report["verdicts"]["jet_fit"] == "holds"
    assert report["tangent"]["m"] == 1
    ((beta, coeff),) = report["jet"]["forms"]["2"]
    assert beta == [2]
    assert abs(coeff[1] - 0.5) <= 1e-3
    assert set(report) == {"version", "input", "point", "schedule", "tangent",
                           "jet", "traces", "verdicts", "timings"}


def test_analyze_comb_fails(tmp_path):
    code, report = analyze(tmp_path, "--input", "fixture:comb",
                           "--point", "0,0.5", "--order", "1")
    assert code == 1
    assert report["verdicts"]["tangent_plane"] == "fails"


def test_analyze_off_support_point(tmp_path):
    code, report = analyze(tmp_path, "--input", "fixture:line",
                           "--point", "0,1", "--order", "1")
    assert code == 1
    assert any(t["verdict"] == "limit_zero" for t in report["traces"])


def test_analyze_cloud_file_input(tmp_path):
    cloud = str(tmp_path / "line.cloud")
    assert main(["fixture", "emit", "line", "--out", cloud]) == 0
    code, report = analyze(tmp_path, "--input", cloud,
                           "--point", "0,0", "--order", "1")
    assert code == 0
    assert report["tangent"]["m"] == 1


# graph clouds whose granularity leaves the default schedule one radius
# short of the 3w - 1 = 14 that a verdict needs
STEEP_DRAWS = [(-1.4234, 2.6919), (1.9296, -2.7576), (1.8578, -2.1672), (1.9004, -2.0925)]
DEFAULT_SCHEDULE = "0.5,0.7071067811865476,24"


def emit_graph(tmp_path, c2, c3):
    cloud = str(tmp_path / "graph.cloud")
    assert main(["fixture", "emit", "graph_poly", "--param", f"coeffs={c2!r},{c3!r}",
                 "--out", cloud]) == 0
    return cloud


@pytest.mark.parametrize("c2,c3", STEEP_DRAWS)
def test_steep_cloud_gets_a_decisive_schedule(tmp_path, c2, c3):
    cloud = emit_graph(tmp_path, c2, c3)
    code, report = analyze(tmp_path, "--input", cloud, "--point", "0,0", "--order", "3")
    assert code == 0
    sched = report["schedule"]
    assert sched["r0"] == 0.5 and sched["J"] == 24 and 2 ** -0.5 < sched["q"] < 0.72
    s = 1.0 if report["tangent"]["basis"][0][0] >= 0 else -1.0
    for deg, want in (("2", c2 / 2), ("3", s * c3 / 6)):
        ((_, coeff),) = report["jet"]["forms"][deg]
        assert abs(coeff[0]) <= 1e-6 and abs(coeff[1] - want) <= 1e-6


def test_explicit_schedule_is_kept_and_tangent_stage_reports_itself(tmp_path):
    cloud = emit_graph(tmp_path, *STEEP_DRAWS[0])
    code, report = analyze(tmp_path, "--input", cloud, "--point", "0,0", "--order", "3",
                           "--schedule", DEFAULT_SCHEDULE)
    assert code == 3
    assert report["schedule"] == {"r0": 0.5, "q": 2 ** -0.5, "J": 24}
    assert report["verdicts"] == {"tangent_plane": "inconclusive", "jet_fit": "inconclusive"}
    assert report["tangent"] == {"reason": "validation_inconclusive"}


def test_decided_cloud_keeps_the_default_schedule(tmp_path):
    cloud = emit_graph(tmp_path, 0.5, 1.0)
    reports = []
    for extra in ((), ("--schedule", DEFAULT_SCHEDULE)):
        code, report = analyze(tmp_path, "--input", cloud, "--point", "0,0", "--order", "3",
                               *extra)
        assert code == 0
        del report["timings"]
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_analyze_hairs_order2_has_no_residual_rule(tmp_path, capsys):
    # the order-2 residual region has no closed-form clip and the hair
    # family is too large to scan, so the analysis cannot decide
    code, report = analyze(tmp_path, "--input", "fixture:a_alpha_gamma",
                           "--point", "0,0", "--order", "2")
    assert code == 3
    assert report["verdicts"]["jet_fit"] == "inconclusive"
    assert "FnPositive" in capsys.readouterr().err


def test_analyze_usage_errors(tmp_path):
    assert main(["analyze", "--input", "fixture:nonesuch", "--point", "0,0",
                 "--order", "1"]) == 2
    assert main(["analyze", "--input", "fixture:line", "--point", "zero",
                 "--order", "1"]) == 2
    assert main(["analyze", "--input", "fixture:line", "--point", "0,0,0",
                 "--order", "1"]) == 2
    assert main(["analyze", "--input", str(tmp_path / "missing.cloud"),
                 "--point", "0,0", "--order", "1"]) == 2


@pytest.mark.parametrize("point", ["nan,0", "0,inf", "inf,nan"])
def test_analyze_non_finite_point(tmp_path, capsys, point):
    code, report = analyze(tmp_path, "--input", "fixture:line", "--point", point,
                           "--order", "2")
    assert code == 2 and report is None
    assert "non-finite" in capsys.readouterr().err


CLOUD = "in.cloud"
ANALYZE_CLOUD = ["analyze", "--input", CLOUD, "--point", "0,0", "--order", "1"]


@pytest.mark.parametrize("argv, cloud", [
    (["analyze", "--input", "fixture:line", "--point", "0,0", "--order", "0"], None),
    (["analyze", "--input", "fixture:line", "--point", "0,0", "--order", "1",
      "--alpha", "2"], None),
    (["fixture", "emit", "graph_poly", "--param", "coeffs=1", "--out", CLOUD], None),
    (ANALYZE_CLOUD, "#gmt-cloud n=2 m=1\n"),
    (ANALYZE_CLOUD, "#gmt-cloud n=2 m=3\n0.5 0.0 0.0\n0.5 0.1 0.0\n"),
    (["analyze", "--input", "fixture:line", "--point", "0,0", "--order", "1",
      "--schedule", "nan,0.7,24"], None),
    (["analyze", "--input", "fixture:line", "--point", "0,0", "--order", "1",
      "--schedule", "inf,0.7,24"], None),
    (["fixture", "emit", "circle", "--param", "R=nan", "--out", CLOUD], None),
    (["fixture", "emit", "graph_poly", "--param", "coeffs=nan,0", "--out", CLOUD], None),
    (["fixture", "emit", "circle", "--param", "R=inf", "--out", CLOUD], None),
    (["fixture", "emit", "dyadic_annuli", "--param", "depth=inf", "--out", CLOUD], None),
    (["fixture", "emit", "comb", "--param", "n_teeth=inf", "--out", CLOUD], None),
    (["analyze", "--input", "fixture:line", "--point", "0,0", "--order", "1",
      "--schedule", "0.5,1e-200,24"], None),
], ids=["order_0", "alpha_2", "scalar_coeffs", "header_only_cloud", "m_above_n_cloud",
        "nan_r0", "inf_r0", "nan_radius", "nan_coeff", "inf_radius", "inf_depth",
        "inf_teeth", "underflowing_radius"])
def test_bad_input_is_usage_error(tmp_path, monkeypatch, capsys, argv, cloud):
    monkeypatch.chdir(tmp_path)
    if cloud is not None:
        (tmp_path / CLOUD).write_text(cloud)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == ([tmp_path / CLOUD] if cloud is not None else [])


def test_analyze_off_origin_parabola(tmp_path):
    # y = x^2/2 at a point whose tangent coordinate is not 0
    code, report = analyze(tmp_path, "--input", "fixture:graph_poly",
                           "--point", "0.3,0.045", "--order", "3")
    assert code == 0
    assert report["verdicts"]["jet_fit"] == "holds"


# ---------------------------------------------------------------------------
# verify


def test_verify_touching_suite(tmp_path):
    out = str(tmp_path / "results.json")
    assert main(["verify", "--suite", "touching", "--out", out]) == 0
    results = json.load(open(out))
    checks = results["suites"]["touching"]["checks"]
    assert len(checks) >= 3
    assert all(c["pass"] for c in checks)


def test_verify_deterministic(tmp_path):
    one, two = str(tmp_path / "one.json"), str(tmp_path / "two.json")
    assert main(["verify", "--suite", "transfer", "--out", one]) == 0
    assert main(["verify", "--suite", "transfer", "--out", two]) == 0
    assert open(one).read() == open(two).read()


def test_verify_seed_changes_trials(tmp_path):
    one, two = str(tmp_path / "one.json"), str(tmp_path / "two.json")
    assert main(["verify", "--suite", "transfer", "--out", one]) == 0
    assert main(["verify", "--suite", "transfer", "--seed", "1",
                 "--out", two]) == 0
    gammas = lambda path: [c["gamma"] for c in
                           json.load(open(path))["suites"]["transfer"]["checks"]]
    assert gammas(one) != gammas(two)


# ---------------------------------------------------------------------------
# plot-data


def test_plot_data_roundtrip(tmp_path):
    report = str(tmp_path / "report.json")
    code = main(["analyze", "--input", "fixture:line", "--point", "0,0",
                 "--order", "1", "--out", report])
    assert code == 0
    out = str(tmp_path / "trace.csv")
    assert main(["plot-data", "--trace", report, "--out", out]) == 0
    with open(out) as fp:
        rows = list(csv.DictReader(fp))
    entries = json.load(open(report))["traces"][0]["entries"]
    assert len(rows) == len(entries)
    for row, (r, ratio, err) in zip(rows, entries):
        assert float(row["r"]) == r
        assert float(row["ratio"]) == ratio
        assert float(row["err"]) == err


def test_plot_data_empty_trace(tmp_path):
    report = str(tmp_path / "report.json")
    json.dump({"traces": [{"entries": []}]}, open(report, "w"))
    out = str(tmp_path / "trace.csv")
    assert main(["plot-data", "--trace", report, "--out", out]) == 0
    assert open(out).read() == "r,ratio,err\n"


def test_plot_data_missing_trace(tmp_path):
    report = str(tmp_path / "report.json")
    json.dump({"verdicts": {}}, open(report, "w"))
    assert main(["plot-data", "--trace", report,
                 "--out", str(tmp_path / "t.csv")]) == 2
    assert main(["plot-data", "--trace", str(tmp_path / "gone.json"),
                 "--out", str(tmp_path / "t.csv")]) == 2


def test_plot_data_index_out_of_range(tmp_path):
    report = str(tmp_path / "report.json")
    json.dump({"traces": [{"entries": [[0.5, 1.0, 0.0]]}]}, open(report, "w"))
    out = tmp_path / "t.csv"
    for index in ("-1", "1"):
        assert main(["plot-data", "--trace", report, "--index", index,
                     "--out", str(out)]) == 2
        assert not out.exists()
    assert main(["plot-data", "--trace", report, "--index", "0", "--out", str(out)]) == 0


@pytest.mark.parametrize("trace", [
    {"entries": [[1, 2]]},
    [1, 2, 3],
    {"entries": 5},
], ids=["short_entry", "trace_not_object", "entries_not_list"])
def test_plot_data_malformed_trace_is_usage_error(tmp_path, capsys, trace):
    report, out = tmp_path / "report.json", tmp_path / "t.csv"
    report.write_text(json.dumps({"traces": [trace]}))
    assert main(["plot-data", "--trace", str(report), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


# ---------------------------------------------------------------------------
# output paths


REPORT = "report.json"


@pytest.mark.parametrize("where", ["missing_parent", "directory"])
@pytest.mark.parametrize("argv", [
    ["fixture", "emit", "line"],
    ["analyze", "--input", "fixture:line", "--point", "0,0", "--order", "1"],
    ["verify", "--suite", "touching"],
    ["plot-data", "--trace", REPORT],
], ids=["fixture_emit", "analyze", "verify", "plot_data"])
def test_unwritable_out_is_usage_error(tmp_path, monkeypatch, capsys, argv, where):
    monkeypatch.chdir(tmp_path)
    (tmp_path / REPORT).write_text(json.dumps({"traces": [{"entries": [[0.5, 1.0, 0.0]]}]}))
    if where == "directory":
        (tmp_path / "out").mkdir()
        out = tmp_path / "out"
    else:
        out = tmp_path / "missing" / "out"
    before = sorted(p.name for p in tmp_path.iterdir())
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # nothing written, not even fixture emit's ground truth beside the cloud
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all"],
    ["analyze", "--input", "fixture:line", "--point", "0,0", "--order", "1"],
], ids=["verify", "analyze"])
def test_unwritable_out_is_rejected_before_any_work(tmp_path, monkeypatch, capsys, argv):
    ran = []
    monkeypatch.setattr(cli, "SUITES", {name: lambda seed, name=name: ran.append(name) or []
                                        for name in cli.SUITES})
    monkeypatch.setattr(cli, "run_analysis",
                        lambda *args: ran.append("analysis") or ({"verdicts": {}}, 0))
    assert main(argv + ["--out", str(tmp_path / "missing" / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert ran == []


@pytest.mark.parametrize("suite", ["transfer", "all"])
def test_negative_seed_is_rejected_before_any_work(monkeypatch, capsys, suite):
    ran = []
    monkeypatch.setattr(cli, "SUITES", {name: lambda seed, name=name: ran.append(name) or []
                                        for name in cli.SUITES})
    assert main(["verify", "--suite", suite, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert ran == []


# ---------------------------------------------------------------------------
# argument plumbing


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_custom_schedule_is_echoed(tmp_path):
    code, report = analyze(tmp_path, "--input", "fixture:line",
                           "--point", "0,0", "--order", "1",
                           "--schedule", "0.4,0.6,20")
    assert code == 0
    assert report["schedule"] == {"r0": 0.4, "q": 0.6, "J": 20}
