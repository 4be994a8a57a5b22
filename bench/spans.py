"""Span tracing of the uniformizer layers, installed from outside the package.

Tracing replaces names in the namespace of the module that calls them:
``("delaunay", "mesh_core.flip_edge")`` means "the ``flip_edge`` that
``delaunay`` reaches through its ``mesh_core`` name".  A dotted name gets a
proxy for the module attribute that overrides only the traced function, so
other callers of the same function are unaffected; a plain name is
replaced in the caller's globals.  ``uninstall`` puts every original back.

Each span records its name, start, end and the index of its parent span.
Spans stay in memory and are written out by the caller when the run ends.
"""

import importlib
import time


# (calling module, name as the caller spells it, span name).  A function
# reached through several callers is wrapped at each call site that lies
# on a benchmark workload's path.
CALL_SITES = [
    ("uniformizer.delaunay", "mesh_core.flip_edge", "mesh_core.flip_edge"),
    ("uniformizer.energy", "mesh_core.vertex_degrees",
     "mesh_core.vertex_degrees"),
    ("uniformizer.energy", "mesh_core.subcomplex_avoiding",
     "mesh_core.subcomplex_avoiding"),
    ("uniformizer.realize", "mesh_core.subcomplex_avoiding",
     "mesh_core.subcomplex_avoiding"),
    ("uniformizer.energy", "fiber_shift", "penner.fiber_shift"),
    ("uniformizer.energy", "_delaunay.make_delaunay", "delaunay.make_delaunay"),
    # horocycle_distances_to calls make_delaunay through delaunay's globals.
    ("uniformizer.delaunay", "make_delaunay", "delaunay.make_delaunay"),
    ("uniformizer.optimize", "_delaunay.horocycle_distances_to",
     "delaunay.horocycle_distances_to"),
    ("uniformizer.optimize", "_energy.conformal_energy",
     "energy.conformal_energy"),
    ("uniformizer.optimize", "_energy.conformal_energy_value",
     "energy.conformal_energy_value"),
    ("uniformizer.optimize", "_energy.punctured_energy",
     "energy.punctured_energy"),
    ("uniformizer.optimize", "_energy.punctured_energy_value",
     "energy.punctured_energy_value"),
    ("uniformizer.realize", "_energy.conformal_energy",
     "energy.conformal_energy"),
    ("uniformizer.realize", "_energy.punctured_energy",
     "energy.punctured_energy"),
    ("uniformizer.optimize", "spla.spsolve", "optimize.spsolve"),
    ("uniformizer.realize", "_optimize.minimize_conformal_energy",
     "optimize.minimize_conformal_energy"),
    ("uniformizer.realize", "_optimize.minimize_punctured_energy",
     "optimize.minimize_punctured_energy"),
    ("uniformizer.realize", "layout_disk", "realize.layout_disk"),
    ("uniformizer.realize", "polyhedron_from_layout",
     "realize.polyhedron_from_layout"),
    ("uniformizer.io_cli", "_realize.uniformize_torus",
     "realize.uniformize_torus"),
    ("uniformizer.io_cli", "read_surface", "io_cli.read_surface"),
    ("uniformizer.io_cli", "write_surface", "io_cli.write_surface"),
    ("uniformizer.io_cli", "write_report", "io_cli.write_report"),
]


class _Proxy:
    """Stands in for a module: the overridden names first, then the module."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Collects spans as [name, start, end, parent-index] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self, call_sites):
        """Wrap every call site; originals are resolved before any change."""
        plain = []
        proxied = {}
        for module_name, dotted, span_name in call_sites:
            caller = importlib.import_module(module_name)
            head, _, attr = dotted.rpartition(".")
            if head:
                target = getattr(caller, head)
                proxied.setdefault((caller, head), (target, {}))[1][attr] = \
                    self.wrap(getattr(target, attr), span_name)
            else:
                plain.append((caller, attr,
                              self.wrap(getattr(caller, attr), span_name)))
        for caller, attr, wrapped in plain:
            self._saved.append((caller, attr, getattr(caller, attr)))
            setattr(caller, attr, wrapped)
        for (caller, head), (target, overrides) in proxied.items():
            self._saved.append((caller, head, target))
            setattr(caller, head, _Proxy(target, overrides))

    def uninstall(self):
        for caller, attr, original in reversed(self._saved):
            setattr(caller, attr, original)
        self._saved = []


def self_times(spans, lo, hi):
    """dict index -> duration minus the durations of its direct children,
    for the spans lo..hi-1."""
    own = {i: spans[i][2] - spans[i][1] for i in range(lo, hi)}
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent in own:
            own[parent] -= spans[i][2] - spans[i][1]
    return own


# Per-layer metrics of one traced pass: name -> unit.
LAYER_UNITS = {
    "mesh_core.flips": "count",
    "mesh_core.flip_s": "s",
    "mesh_core.flip_us": "us",
    "mesh_core.vertex_degrees_s": "s",
    "mesh_core.subcomplex_s": "s",
    "delaunay.calls": "count",
    "delaunay.self_s": "s",
    "delaunay.flips_per_call": "flips/call",
    "delaunay.horocycle_s": "s",
    "penner.fiber_shift_calls": "count",
    "penner.fiber_shift_s": "s",
    "energy.evals": "count",
    "energy.value_evals": "count",
    "energy.self_s": "s",
    "optimize.newton_its": "count",
    "optimize.ls_trials": "count",
    "optimize.ls_accept_ratio": "ratio",
    "optimize.spsolve_calls": "count",
    "optimize.spsolve_s": "s",
    "optimize.self_s": "s",
    "optimize.kkt_s": "s",
    "realize.self_s": "s",
    "realize.layout_s": "s",
    "io_cli.read_s": "s",
    "io_cli.write_s": "s",
}

FULL_EVALS = ("energy.conformal_energy", "energy.punctured_energy")
VALUE_EVALS = ("energy.conformal_energy_value",
               "energy.punctured_energy_value")
SOLVERS = ("optimize.minimize_conformal_energy",
           "optimize.minimize_punctured_energy")


def layer_metrics(spans, lo, hi):
    """The LAYER_UNITS metrics of the spans lo..hi-1 (one pass)."""
    own = self_times(spans, lo, hi)
    by_name = {}
    children = {}
    for i in range(lo, hi):
        by_name.setdefault(spans[i][0], []).append(i)
        children.setdefault(spans[i][3], []).append(i)

    def count(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names):
        return float(sum(spans[i][2] - spans[i][1]
                         for n in names for i in by_name.get(n, ())))

    def self_total(*names):
        return float(sum(own[i] for n in names for i in by_name.get(n, ())))

    # A Newton iteration ends with one full energy evaluation, made by the
    # solver itself; value-only evaluations between two full ones are the
    # trials of one line search, the last of them the accepted step.
    its = trials = accepted = 0
    for solver in (i for n in SOLVERS for i in by_name.get(n, ())):
        kinds = [spans[c][0] for c in children.get(solver, ())
                 if spans[c][0] in FULL_EVALS + VALUE_EVALS]
        full = [k for k, name in enumerate(kinds) if name in FULL_EVALS]
        if not full:
            continue
        its += len(full) - 1
        for a, b in zip(full, full[1:]):
            trials += b - a - 1
            accepted += b - a > 1

    flips = count("mesh_core.flip_edge")
    flip_s = total("mesh_core.flip_edge")
    calls = count("delaunay.make_delaunay")
    return {
        "mesh_core.flips": flips,
        "mesh_core.flip_s": flip_s,
        "mesh_core.flip_us": 1e6 * flip_s / flips if flips else 0.0,
        "mesh_core.vertex_degrees_s": total("mesh_core.vertex_degrees"),
        "mesh_core.subcomplex_s": total("mesh_core.subcomplex_avoiding"),
        "delaunay.calls": calls,
        "delaunay.self_s": self_total("delaunay.make_delaunay",
                                      "delaunay.horocycle_distances_to"),
        "delaunay.flips_per_call": flips / calls if calls else 0.0,
        "delaunay.horocycle_s": total("delaunay.horocycle_distances_to"),
        "penner.fiber_shift_calls": count("penner.fiber_shift"),
        "penner.fiber_shift_s": total("penner.fiber_shift"),
        "energy.evals": count(*FULL_EVALS),
        "energy.value_evals": count(*VALUE_EVALS),
        "energy.self_s": self_total(*FULL_EVALS + VALUE_EVALS),
        "optimize.newton_its": its,
        "optimize.ls_trials": trials,
        "optimize.ls_accept_ratio": accepted / trials if trials else 1.0,
        "optimize.spsolve_calls": count("optimize.spsolve"),
        "optimize.spsolve_s": total("optimize.spsolve"),
        "optimize.self_s": self_total(*SOLVERS + ("optimize.kkt_check",)),
        "optimize.kkt_s": total("optimize.kkt_check"),
        "realize.self_s": self_total("realize.uniformize_sphere",
                                     "realize.uniformize_torus",
                                     "realize.layout_disk",
                                     "realize.polyhedron_from_layout"),
        "realize.layout_s": total("realize.layout_disk",
                                  "realize.polyhedron_from_layout"),
        "io_cli.read_s": total("io_cli.read_surface"),
        "io_cli.write_s": total("io_cli.write_surface",
                                "io_cli.write_report"),
    }
