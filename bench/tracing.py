"""Span tracing of gmtjet's layers, installed from outside the package.

`install()` replaces the traced functions and methods of every gmtjet module
with wrappers that record a span per call (name, start, end, parent span,
request id) and the counts the per-layer metrics need.  A method is wrapped
on the class that defines it.  Every other reference a gmtjet module holds to
a wrapped function is then rebound: names imported with ``from .x import f``,
values of module-level containers such as ``cli.SUITES``, attributes of
classes, default arguments and closure cells.  `unwrapped_references()` lists
whatever still reaches an original, and `install()` refuses to return while
that list is non-empty, so a call cannot bypass the trace through a stale
alias.

The wrappers return what the wrapped call returns and let its exceptions
pass, so a traced run computes the same outputs as an untraced one.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import time
import types
import weakref
from collections import Counter

PACKAGE = "gmtjet"
MODULES = ("config", "geometry", "measure", "density", "jetfit", "pointwise",
           "sff", "fixtures", "cli")

# span names of the measure oracles; an oracle class not listed here is
# traced as "<module>.<Class>"
ORACLE_SPANS = {
    "ChartOracle": "measure.chart",
    "CloudOracle": "measure.cloud",
    "MappedOracle": "measure.mapped",
    "IntervalOracle": "measure.interval",
    "RestrictedOracle": "measure.restricted",
    "UnionOracle": "measure.union",
    "HairOracle": "fixtures.hair",
}

# functions traced by name: (module, attribute, span name)
FUNCTION_SPANS = [
    ("geometry", "monomials", "geometry.monomials"),
    ("measure", "read_cloud", "measure.read_cloud"),
    ("measure", "write_cloud", "measure.write_cloud"),
    ("fixtures", "make_fixture", None),  # named per fixture, see _fixture_span
    ("density", "_trace", "density.trace"),
    ("density", "decide_verdict", "density.decide_verdict"),
    ("density", "cone_condition_check", "density.cone_condition_check"),
    ("density", "in_lower_tangent_cone", "density.in_lower_tangent_cone"),
    ("density", "in_upper_tangent_cone", "density.in_upper_tangent_cone"),
    ("density", "eta_uniform_condition", "density.eta_uniform_condition"),
    ("density", "density_transfer_check", "density.density_transfer_check"),
    ("density", "blow_up_tangent", "density.blow_up_tangent"),
    ("jetfit", "_estimate_tangent", "jetfit.tangent"),
    ("jetfit", "refine_tangent_plane", "jetfit.refine"),
    ("jetfit", "fit_homogeneous_form", "jetfit.fit"),
    ("jetfit", "_cylinder_condition", "jetfit.cylinder"),
    ("jetfit", "_residual_condition", "jetfit.residual"),
    ("jetfit", "_hoelder_search", "jetfit.hoelder"),
    ("jetfit", "estimate_tangent_plane", "jetfit.estimate_tangent_plane"),
    ("jetfit", "iterated_jet_fit", "jetfit.iterated_jet_fit"),
    ("jetfit", "jet_uniqueness_crosscheck", "jetfit.jet_uniqueness_crosscheck"),
    ("jetfit", "shear_invariance_check", "jetfit.shear_invariance_check"),
    ("pointwise", "distance_fn", None),  # its closures are traced, see _wrap_distance_fn
    ("pointwise", "pt_diff_order1_test", "pointwise.pt_diff_order1_test"),
    ("pointwise", "in_pt_upper_cone", "pointwise.in_pt_upper_cone"),
    ("pointwise", "in_pt_lower_cone", "pointwise.in_pt_lower_cone"),
    ("pointwise", "carve_full_density_subset", "pointwise.carve_full_density_subset"),
    ("pointwise", "touching_ball_check", "pointwise.touching_ball_check"),
    ("sff", "approximate_sff", "sff.approximate_sff"),
    ("sff", "normal_field_identity_check", "sff.normal_field_identity_check"),
    ("cli", "cmd_analyze", "cli.analyze"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_fixture", "cli.fixture"),
]

SUITE_NAMES = ("cones", "equivalence", "uniqueness", "shear", "pointwise",
               "sff", "touching", "transfer")


class Stat:
    """Aggregate of all spans of one name."""

    __slots__ = ("calls", "outer_calls", "incl_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0          # every span of the name
        self.outer_calls = 0    # spans not nested in a span of the same name
        self.incl_s = 0.0       # duration of the outer spans
        self.self_s = 0.0       # duration minus the time covered by child spans
        self.counts = Counter()

    def to_dict(self):
        return {"calls": self.calls, "outer_calls": self.outer_calls,
                "incl_s": self.incl_s, "self_s": self.self_s,
                "counts": dict(self.counts)}


class ChartRecord:
    __slots__ = ("nodes", "fine_nodes", "queried")

    def __init__(self, nodes, fine_nodes):
        self.nodes = nodes
        self.fine_nodes = fine_nodes
        self.queried = False


class Tracer:
    """Span stack plus per-name aggregates; spans stay in memory until `dump`."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []            # open frames [name, start, child_s, span_id, parent_id]
        self.active = Counter()    # names of the open spans
        self.stats: dict[str, Stat] = {}
        self.spans = []            # (span_id, parent_id, request, name, start, end)
        self.request = None        # id shared by the spans of one benchmark operation
        self.open_queries = 0      # open oracle mass queries
        self.charts: list[ChartRecord] = []
        self.chart_of = weakref.WeakKeyDictionary()
        self.last_center = weakref.WeakKeyDictionary()

    def stat(self, name) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def enter(self, name):
        parent = self.stack[-1][3] if self.stack else -1
        frame = [name, 0.0, 0.0, len(self.spans), parent]
        self.spans.append(None)
        self.stack.append(frame)
        self.active[name] += 1
        frame[1] = self.clock()
        return frame

    def exit(self, frame):
        end = self.clock()
        name, start, child, span_id, parent = frame
        self.stack.pop()
        self.active[name] -= 1
        dur = end - start
        st = self.stat(name)
        st.calls += 1
        st.self_s += dur - child
        if not self.active[name]:
            st.outer_calls += 1
            st.incl_s += dur
        if self.stack:
            self.stack[-1][2] += dur
        self.spans[span_id] = (span_id, parent, self.request, name, start, end)

    def outermost(self, name) -> bool:
        """True inside the outermost open span of `name`."""
        return self.active[name] == 1

    def count(self, name, key, value=1):
        self.stat(name).counts[key] += value

    def begin_query(self):
        """An oracle mass query starts; charge it to every open span name once."""
        if self.open_queries == 0:
            for name, n in self.active.items():
                if n:
                    self.stat(name).counts["mass_calls"] += 1
        self.open_queries += 1

    def end_query(self):
        self.open_queries -= 1

    def dump(self, path):
        """Write the spans as tab-separated lines: id, parent, request, name, start, end."""
        with gzip.open(path, "wt") as fp:
            fp.write("span\tparent\trequest\tname\tstart_s\tend_s\n")
            for span in self.spans:
                if span is not None:
                    sid, parent, request, name, start, end = span
                    fp.write(f"{sid}\t{parent}\t{request}\t{name}\t{start!r}\t{end!r}\n")


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer, fn, span, before=None, after=None, query=False):
    """A traced stand-in for fn.

    `span` is a name or a callable of the arguments returning one.  `before`
    runs outside the span; `after` runs inside it, on the result.  `query`
    marks an oracle mass query, charged to every open span.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = span(args, kwargs) if callable(span) else span
        if before is not None:
            before(tracer, name, args)
        if query:
            tracer.begin_query()
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, name, args, result)
            return result
        finally:
            tracer.exit(frame)
            if query:
                tracer.end_query()

    traced.__traced__ = True
    return traced


def _count_rows(tracer, name, args, result):
    # args[1] is the point array of contains_many, margin, eval_coords,
    # apply and invert; a single point counts as one row
    if tracer.outermost(name):
        X = args[1] if len(args) > 1 else args[0]
        shape = getattr(X, "shape", None)
        tracer.count(name, "points", shape[0] if shape and len(shape) == 2 else 1)


def _count_monomial_rows(tracer, name, args, result):
    if tracer.outermost(name):
        tracer.count(name, "points", result.shape[0])


def _count_returned_samples(tracer, name, args, result):
    tracer.count(name, "points", len(result[0]))


def _count_records(tracer, name, args, result):
    tracer.count(name, "records", len(result[0].weights))


def _count_trace_radii(tracer, name, args, result):
    if tracer.outermost(name):
        tracer.count(name, "radii", len(result.entries))


def _chart_nodes(charts):
    """Coarse plus fine quadrature nodes, from each ChartSpec's public
    resolution and domain (the oracle builds grids at res and 2 res)."""
    nodes = fine = 0
    for ch in charts:
        m = len(ch.domain)
        nodes += ch.quad_resolution ** m + (2 * ch.quad_resolution) ** m
        fine += (2 * ch.quad_resolution) ** m
    return nodes, fine


def _chart_built(tracer, name, args, result):
    oracle = args[0]
    nodes, fine = _chart_nodes(oracle.charts)
    record = ChartRecord(nodes, fine)
    tracer.charts.append(record)
    tracer.chart_of[oracle] = record


def _chart_mass_before(tracer, name, args):
    oracle, region = args[0], args[1]
    record = tracer.chart_of.get(oracle)
    if record is not None:
        record.queried = True
    # a center switch is a query culled around another center than the
    # previous culled query on the same oracle
    bb = region.bounding_ball()
    if bb is None:
        tracer.count(name, "unculled")
        return
    center = tuple(float(c) for c in bb[0])
    if tracer.last_center.get(oracle) != center:
        tracer.count(name, "center_switches")
        tracer.last_center[oracle] = center


def _chart_samples_before(tracer, name, args):
    record = tracer.chart_of.get(args[0])
    if record is not None:
        record.queried = True
        tracer.count(name, "scanned", record.fine_nodes)


def _cloud_mass_before(tracer, name, args):
    tracer.count(name, "points_scanned", len(args[0].cloud.points))


def _fixture_span(args, kwargs):
    return f"fixtures.make_fixture.{args[0] if args else kwargs.get('name')}"


def _wrap_distance_fn(tracer, fn):
    """distance_fn returns a closure; trace each distance evaluation it makes."""

    @functools.wraps(fn)
    def factory(*args, **kwargs):
        return _wrap(tracer, fn(*args, **kwargs), "pointwise.distance")

    factory.__traced__ = True
    return factory


# ---------------------------------------------------------------------------
# installation


def _modules():
    return [importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]


def _package_classes(modules):
    seen = {}
    for mod in modules:
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__.startswith(PACKAGE + "."):
                seen[id(val)] = val
    return list(seen.values())


def _targets(tracer, modules):
    """(owner, attribute, wrapper) for every traced function and method."""
    geometry = importlib.import_module(f"{PACKAGE}.geometry")
    measure = importlib.import_module(f"{PACKAGE}.measure")
    cli = importlib.import_module(f"{PACKAGE}.cli")
    out = []
    for cls in _package_classes(modules):
        own = cls.__dict__
        if issubclass(cls, geometry.Region):
            for meth in ("contains_many", "margin"):
                if isinstance(own.get(meth), types.FunctionType):
                    out.append((cls, meth, _wrap(tracer, own[meth], f"geometry.{meth}",
                                                 after=_count_rows)))
        if issubclass(cls, measure.MeasureOracle) and cls is not measure.MeasureOracle:
            base = ORACLE_SPANS.get(cls.__name__,
                                    f"{cls.__module__.split('.')[-1]}.{cls.__name__}")
            if cls is measure.ChartOracle:
                out.append((cls, "__init__", _wrap(tracer, own["__init__"],
                                                   "measure.chart.build",
                                                   after=_chart_built)))
            if isinstance(own.get("mass"), types.FunctionType):
                before = {measure.ChartOracle: _chart_mass_before,
                          measure.CloudOracle: _cloud_mass_before}.get(cls)
                out.append((cls, "mass", _wrap(tracer, own["mass"], f"{base}.mass",
                                               before=before, query=True)))
            if isinstance(own.get("samples_in_ball"), types.FunctionType):
                before = _chart_samples_before if cls is measure.ChartOracle else None
                out.append((cls, "samples_in_ball",
                            _wrap(tracer, own["samples_in_ball"],
                                  f"{base}.samples_in_ball", before=before,
                                  after=_count_returned_samples)))
    for cls_name in ("HomogeneousForm", "Jet"):
        cls = getattr(geometry, cls_name)
        out.append((cls, "eval_coords", _wrap(tracer, cls.__dict__["eval_coords"],
                                              "geometry.eval_coords",
                                              after=_count_rows)))
    for meth in ("apply", "invert"):
        out.append((geometry.ShearMap, meth,
                    _wrap(tracer, geometry.ShearMap.__dict__[meth], "geometry.shear",
                          after=_count_rows)))

    afters = {"geometry.monomials": _count_monomial_rows,
              "measure.read_cloud": _count_records,
              "density.trace": _count_trace_radii}
    for mod_name, attr, span in FUNCTION_SPANS:
        mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
        fn = getattr(mod, attr)
        if attr == "distance_fn":
            out.append((mod, attr, _wrap_distance_fn(tracer, fn)))
        elif attr == "make_fixture":
            out.append((mod, attr, _wrap(tracer, fn, _fixture_span)))
        else:
            out.append((mod, attr, _wrap(tracer, fn, span, after=afters.get(span))))
    for suite in SUITE_NAMES:
        attr = f"suite_{suite}"
        out.append((cli, attr, _wrap(tracer, getattr(cli, attr), f"cli.suite.{suite}")))
    return out


def _references(modules):
    """Every (holder, key, value) through which gmtjet code can reach a callable.

    holder is a module, class, container, function (for its defaults) or
    closure cell; key is the attribute name, dict key or index,
    ("defaults", i), ("kwdefaults", k) or ("cell", i).  Containers held by
    modules and classes are walked to any depth; the wrappers themselves,
    which hold their original, are not.
    """
    refs = []
    seen = set()

    def walk(holder, key, val):
        refs.append((holder, key, val))
        if id(val) in seen:
            return
        if isinstance(val, dict):
            seen.add(id(val))
            for k, v in val.items():
                walk(val, k, v)
        elif isinstance(val, (list, tuple)):
            seen.add(id(val))
            for i, v in enumerate(val):
                walk(val, i, v)
        elif isinstance(val, types.FunctionType) and val.__module__ \
                and val.__module__.startswith(PACKAGE + ".") \
                and not getattr(val, "__traced__", False):
            seen.add(id(val))
            for i, v in enumerate(val.__defaults__ or ()):
                walk(val, ("defaults", i), v)
            for k, v in (val.__kwdefaults__ or {}).items():
                walk(val, ("kwdefaults", k), v)
            for i, cell in enumerate(val.__closure__ or ()):
                try:
                    walk(val, ("cell", i), cell.cell_contents)
                except ValueError:  # empty cell
                    pass

    for mod in modules:
        for key, val in vars(mod).items():
            walk(mod, key, val)
    for cls in _package_classes(modules):
        for key, val in vars(cls).items():
            walk(cls, key, val)
    return refs


def _rebind(holder, key, new):
    if isinstance(key, tuple) and key[0] == "defaults":
        defaults = list(holder.__defaults__)
        defaults[key[1]] = new
        holder.__defaults__ = tuple(defaults)
    elif isinstance(key, tuple) and key[0] == "kwdefaults":
        holder.__kwdefaults__[key[1]] = new
    elif isinstance(key, tuple) and key[0] == "cell":
        holder.__closure__[key[1]].cell_contents = new
    elif isinstance(holder, (dict, list)):
        holder[key] = new
    elif isinstance(holder, tuple):
        raise RuntimeError(f"cannot rebind a traced function held in a tuple at {key!r}")
    else:
        setattr(holder, key, new)


def unwrapped_references(originals, modules) -> list[str]:
    """Names of the places in gmtjet that still hold an original callable."""
    bad = []
    for holder, key, val in _references(modules):
        if id(val) in originals and originals[id(val)] is val:
            where = getattr(holder, "__qualname__", None) or getattr(holder, "__name__", None) \
                or type(holder).__name__
            bad.append(f"{where}[{key!r}]")
    return bad


def install() -> Tracer:
    """Trace gmtjet in this process; raises RuntimeError if an alias escapes."""
    modules = _modules()
    tracer = Tracer()
    originals = {}
    wrappers = {}
    for owner, attr, wrapper in _targets(tracer, modules):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        originals[id(original)] = original
        wrappers[id(original)] = wrapper
        setattr(owner, attr, wrapper)
    for holder, key, val in _references(modules):
        if id(val) in originals and originals[id(val)] is val:
            _rebind(holder, key, wrappers[id(val)])
    bad = unwrapped_references(originals, modules)
    if bad:
        raise RuntimeError("gmtjet still holds unwrapped originals: " + ", ".join(bad))
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num, base):
    return num / base if base else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """name -> value for every per-layer metric; idle layers read 0."""
    S = tracer.stats
    empty = Stat()

    def st(name):
        return S.get(name, empty)

    out = {}
    builds = st("measure.chart.build")
    unqueried = sum(1 for r in tracer.charts if not r.queried)
    out["measure.chart.build.s"] = builds.incl_s
    out["measure.chart.builds"] = builds.calls
    out["measure.chart.nodes"] = sum(r.nodes for r in tracer.charts)
    out["measure.chart.unqueried_builds"] = unqueried
    out["measure.chart.unqueried_build_frac"] = _ratio(unqueried, builds.calls)
    mass = st("measure.chart.mass")
    out["measure.chart.mass.calls"] = mass.calls
    out["measure.chart.mass.self_s"] = mass.self_s
    out["measure.chart.center_switches"] = mass.counts["center_switches"]
    out["measure.chart.center_switches_per_mass_call"] = _ratio(
        mass.counts["center_switches"], mass.calls)
    sib = st("measure.chart.samples_in_ball")
    out["measure.chart.samples_in_ball.calls"] = sib.calls
    out["measure.chart.samples_in_ball.self_s"] = sib.self_s
    out["measure.chart.samples_in_ball.points"] = sib.counts["points"]
    out["measure.chart.samples_in_ball.scanned"] = sib.counts["scanned"]
    out["measure.chart.samples_in_ball.hit_frac"] = _ratio(sib.counts["points"],
                                                           sib.counts["scanned"])
    cloud = st("measure.cloud.mass")
    out["measure.cloud.mass.calls"] = cloud.calls
    out["measure.cloud.mass.self_s"] = cloud.self_s
    out["measure.cloud.mass.points_scanned"] = cloud.counts["points_scanned"]
    reads = st("measure.read_cloud")
    out["measure.read_cloud.s"] = reads.incl_s
    out["measure.read_cloud.records"] = reads.counts["records"]
    mapped = st("measure.mapped.mass")
    out["measure.mapped.mass.calls"] = mapped.calls
    out["measure.mapped.mass.self_s"] = mapped.self_s
    out["measure.interval.mass.self_s"] = st("measure.interval.mass").self_s
    out["fixtures.hair.mass.self_s"] = st("fixtures.hair.mass").self_s
    fixtures = importlib.import_module(f"{PACKAGE}.fixtures")
    for name in sorted(fixtures.CATALOG):
        out[f"fixtures.make_fixture.{name}.s"] = st(f"fixtures.make_fixture.{name}").incl_s
    for layer in ("contains_many", "margin", "monomials", "eval_coords", "shear"):
        s = st(f"geometry.{layer}")
        out[f"geometry.{layer}.points"] = s.counts["points"]
        out[f"geometry.{layer}.self_s"] = s.self_s
    trace = st("density.trace")
    out["density.traces"] = trace.outer_calls
    out["density.trace_radii"] = trace.counts["radii"]
    out["density.mass_calls_per_trace"] = _ratio(trace.counts["mass_calls"],
                                                 trace.outer_calls)
    out["density.cone_condition_check.s"] = st("density.cone_condition_check").incl_s
    out["density.in_lower_tangent_cone.s"] = st("density.in_lower_tangent_cone").incl_s
    dv = st("density.decide_verdict")
    out["density.decide_verdict.calls"] = dv.calls
    out["density.decide_verdict.self_s"] = dv.self_s
    for stage in ("tangent", "refine", "fit", "cylinder", "residual", "hoelder"):
        s = st(f"jetfit.{stage}")
        out[f"jetfit.{stage}.s"] = s.incl_s
        out[f"jetfit.{stage}.mass_calls"] = s.counts["mass_calls"]
    dist = st("pointwise.distance")
    out["pointwise.distance.calls"] = dist.calls
    out["pointwise.distance.self_s"] = dist.self_s
    out["sff.normal_field_identity_check.s"] = st("sff.normal_field_identity_check").incl_s
    for suite in SUITE_NAMES:
        out[f"cli.suite.{suite}.s"] = st(f"cli.suite.{suite}").incl_s
    out["cli.analyze.self_s"] = st("cli.analyze").self_s
    out["trace.spans"] = sum(s.calls for s in S.values())
    return out
