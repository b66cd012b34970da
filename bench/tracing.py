"""Per-layer tracing for the traced benchmark run.

The tracer wraps public functions of chamberwalk from the outside: each
call records a span (name, start, end, parent span) plus counters, in
memory.  After the run, self time per span is its duration minus the time
covered by its direct child spans, and the spans go to one file.

Nothing here is imported by an untraced run, so end-to-end figures carry
no tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# (layer, module, attribute path) for every wrapped public name.  Several
# names may feed one layer, as the three TreeBuilding methods do.
TARGETS = (
    ("netwalk.hitting_matrix", "chamberwalk.netwalk", "hitting_matrix"),
    ("netwalk.hitting_distribution", "chamberwalk.netwalk", "hitting_distribution"),
    ("netwalk.kernel_from_network", "chamberwalk.netwalk", "kernel_from_network"),
    ("netwalk.MarkovKernel.sample_next", "chamberwalk.netwalk", "MarkovKernel.sample_next"),
    ("netwalk.RngStream.generator", "chamberwalk.netwalk", "RngStream.generator"),
    ("discretize.induced_kernel_exact", "chamberwalk.discretize", "induced_kernel_exact"),
    ("discretize.harmonic_transfer_check", "chamberwalk.discretize",
     "harmonic_transfer_check"),
    ("discretize.discretize_lattice", "chamberwalk.discretize", "discretize_lattice"),
    ("buildings.A2Ball.build", "chamberwalk.buildings", "A2Ball.__init__"),
    ("buildings.A2Ball.neighbor_classes", "chamberwalk.buildings", "A2Ball.neighbor_classes"),
    ("buildings.A2Ball.sigma", "chamberwalk.buildings", "A2Ball.sigma"),
    ("buildings.A2Ball.to_json", "chamberwalk.buildings", "A2Ball.to_json"),
    ("buildings.TreeBuilding", "chamberwalk.buildings", "TreeBuilding.sphere"),
    ("buildings.TreeBuilding", "chamberwalk.buildings", "TreeBuilding.geodesic"),
    ("buildings.TreeBuilding", "chamberwalk.buildings", "TreeBuilding.distance"),
    ("coxeter.n_lambda", "chamberwalk.coxeter", "n_lambda"),
    ("coxeter.WeylGroup.build", "chamberwalk.coxeter", "WeylGroup.__init__"),
    ("boundary.boundary_hitting_mc", "chamberwalk.boundary", "boundary_hitting_mc"),
    ("boundary.IsotropicKernel.row", "chamberwalk.boundary", "IsotropicKernel.row"),
    ("action.quotient_law_check", "chamberwalk.action", "quotient_law_check"),
    ("action.return_time_stats", "chamberwalk.action", "return_time_stats"),
    ("stats.chisquare", "chamberwalk.stats", "chisquare_uniform"),
    ("stats.chisquare", "chamberwalk.stats", "chisquare_expected"),
    ("stats.chisquare", "chamberwalk.stats", "combine_chisquares"),
    ("cli.main", "chamberwalk.cli", "main"),
)

# The per-layer metrics a traced run reports: (name, unit, layer, field).
# Fields: calls, s (summed self time), or a counter recorded below.
METRICS = (
    ("netwalk.hitting_matrix.calls", "count", "netwalk.hitting_matrix", "calls"),
    ("netwalk.hitting_matrix.s", "s", "netwalk.hitting_matrix", "s"),
    ("netwalk.hitting_matrix.unknowns", "count", "netwalk.hitting_matrix", "unknowns"),
    ("netwalk.hitting_matrix.repeat_share", "ratio", "netwalk.hitting_matrix", "repeat_share"),
    ("netwalk.hitting_distribution.calls", "count", "netwalk.hitting_distribution", "calls"),
    ("netwalk.hitting_distribution.s", "s", "netwalk.hitting_distribution", "s"),
    ("netwalk.kernel_from_network.s", "s", "netwalk.kernel_from_network", "s"),
    ("discretize.induced_kernel_exact.calls", "count", "discretize.induced_kernel_exact",
     "calls"),
    ("discretize.induced_kernel_exact.s", "s", "discretize.induced_kernel_exact", "s"),
    ("discretize.harmonic_transfer_check.s", "s", "discretize.harmonic_transfer_check", "s"),
    ("discretize.discretize_lattice.s", "s", "discretize.discretize_lattice", "s"),
    ("buildings.A2Ball.build.s", "s", "buildings.A2Ball.build", "s"),
    ("buildings.A2Ball.vertices", "count", "buildings.A2Ball.build", "vertices"),
    ("buildings.A2Ball.neighbor_classes.calls", "count", "buildings.A2Ball.neighbor_classes",
     "calls"),
    ("buildings.A2Ball.neighbor_classes.s", "s", "buildings.A2Ball.neighbor_classes", "s"),
    ("buildings.A2Ball.neighbor_classes.candidates_per_vertex", "ratio",
     "buildings.A2Ball.neighbor_classes", "candidates_per_vertex"),
    ("buildings.A2Ball.sigma.calls", "count", "buildings.A2Ball.sigma", "calls"),
    ("buildings.A2Ball.sigma.s", "s", "buildings.A2Ball.sigma", "s"),
    ("buildings.A2Ball.to_json.s", "s", "buildings.A2Ball.to_json", "s"),
    ("buildings.TreeBuilding.calls", "count", "buildings.TreeBuilding", "calls"),
    ("buildings.TreeBuilding.s", "s", "buildings.TreeBuilding", "s"),
    ("coxeter.n_lambda.calls", "count", "coxeter.n_lambda", "calls"),
    ("coxeter.n_lambda.s", "s", "coxeter.n_lambda", "s"),
    ("coxeter.WeylGroup.build.s", "s", "coxeter.WeylGroup.build", "s"),
    ("netwalk.MarkovKernel.sample_next.calls", "count", "netwalk.MarkovKernel.sample_next",
     "calls"),
    ("netwalk.MarkovKernel.sample_next.s", "s", "netwalk.MarkovKernel.sample_next", "s"),
    ("netwalk.RngStream.generator.calls", "count", "netwalk.RngStream.generator", "calls"),
    ("netwalk.RngStream.generator.s", "s", "netwalk.RngStream.generator", "s"),
    ("boundary.boundary_hitting_mc.s", "s", "boundary.boundary_hitting_mc", "s"),
    ("boundary.IsotropicKernel.row.calls", "count", "boundary.IsotropicKernel.row", "calls"),
    ("boundary.IsotropicKernel.row.s", "s", "boundary.IsotropicKernel.row", "s"),
    ("action.quotient_law_check.s", "s", "action.quotient_law_check", "s"),
    ("action.return_time_stats.s", "s", "action.return_time_stats", "s"),
    ("stats.chisquare.calls", "count", "stats.chisquare", "calls"),
    ("stats.chisquare.s", "s", "stats.chisquare", "s"),
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("cli.main.self_s", "s", "cli.main", "s"),
    ("cli.report_bytes", "bytes", "cli.main", "report_bytes"),
)


def _kernel_key(kernel):
    """Content key of a finite kernel, so equal kernels built twice match."""
    return tuple((x, kernel.row(x)) for x in kernel.nodes)


class Tracer:
    """Wraps the TARGETS in place and keeps their spans in memory."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.span_layer: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.counters: dict[str, dict] = {}
        self.absent: list[str] = []
        self._solved: set = set()

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists and is not wrapped yet.

        Call again after reloading a module: its fresh functions get
        wrapped, and names it imported from wrapped modules already are.
        """
        for layer, module_name, path in TARGETS:
            module = sys.modules.get(module_name) or importlib.import_module(module_name)
            owner = module
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (AttributeError, KeyError):
                name = f"{module_name}.{path}"
                if name not in self.absent:
                    self.absent.append(name)
                continue
            if getattr(original, "_bench_layer", None):
                continue
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("chamberwalk") or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.counters[layer] = {}
        return self._layer_ids[layer]

    def _wrap(self, layer: str, fn):
        lid = self._layer_id(layer)
        after = _AFTER.get(layer)
        before = _BEFORE.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = self._open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, result)
            return result

        wrapper._bench_layer = layer
        return wrapper

    # -- spans -------------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, lid: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's outermost span belongs to the main thread's
            # innermost open span, the call that started the workers
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            idx = len(self.span_layer)
            self.span_layer.append(lid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        stack.append(idx)
        self.span_start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack().pop()

    def add(self, layer: str, counter: str, amount) -> None:
        with self._lock:
            box = self.counters[layer]
            box[counter] = box.get(counter, 0) + amount

    def mark(self) -> int:
        """Span count so far; metrics(upto=mark) covers only those spans."""
        return len(self.span_layer)

    def snapshot_counters(self) -> dict:
        with self._lock:
            return {layer: dict(box) for layer, box in self.counters.items()}

    # -- results -----------------------------------------------------------------

    def self_times(self, upto: int) -> list[float]:
        """Duration minus the union of direct children's intervals."""
        children: dict[int, list] = {}
        for i in range(upto):
            parent = self.span_parent[i]
            if parent >= 0:
                children.setdefault(parent, []).append(
                    (self.span_start[i], self.span_end[i]))
        out = []
        for i in range(upto):
            own = self.span_end[i] - self.span_start[i]
            covered = 0.0
            if i in children:
                cur_lo = cur_hi = None
                for lo, hi in sorted(children[i]):
                    if cur_hi is None or lo > cur_hi:
                        if cur_hi is not None:
                            covered += cur_hi - cur_lo
                        cur_lo, cur_hi = lo, hi
                    else:
                        cur_hi = max(cur_hi, hi)
                covered += cur_hi - cur_lo
            out.append(own - covered)
        return out

    def metrics(self, upto: int, counters: dict) -> dict:
        calls = [0] * len(self.layers)
        secs = [0.0] * len(self.layers)
        for i, s in enumerate(self.self_times(upto)):
            lid = self.span_layer[i]
            calls[lid] += 1
            secs[lid] += s
        out = {}
        for name, unit, layer, field in METRICS:
            if layer not in self._layer_ids or _layer_absent(self, layer):
                continue
            lid = self._layer_ids[layer]
            box = counters.get(layer, {})
            if field == "calls":
                value = calls[lid]
            elif field == "s":
                value = secs[lid]
            elif field == "repeat_share":
                value = box.get("repeats", 0) / calls[lid] if calls[lid] else 0.0
            elif field == "candidates_per_vertex":
                kept = counters.get("buildings.A2Ball.build", {}).get("vertices", 0)
                value = box.get("candidates", 0) / kept if kept else 0.0
            else:
                value = box.get(field, 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path, summary: dict, upto: int) -> None:
        """Write the summary and the first ``upto`` spans, gzipped JSON."""
        import gzip
        import json

        doc = dict(summary)
        doc["layers"] = self.layers
        doc["spans"] = {
            "layer": self.span_layer[:upto],
            "parent": self.span_parent[:upto],
            "start": self.span_start[:upto],
            "end": self.span_end[:upto],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _layer_absent(tracer: Tracer, layer: str) -> bool:
    """A layer is absent when every name that feeds it is absent."""
    names = [f"{m}.{p}" for lay, m, p in TARGETS if lay == layer]
    return all(n in tracer.absent for n in names)


# -- counters recorded around particular calls -----------------------------------


def _before_hitting(tracer: Tracer, args, kwargs) -> None:
    kernel = args[0] if args else kwargs["kernel"]
    absorbing = args[1] if len(args) > 1 else kwargs["absorbing"]
    absorbing = tuple(absorbing)
    key = (_kernel_key(kernel), absorbing)
    hashed = hash(key)
    with tracer._lock:
        repeat = hashed in tracer._solved
        tracer._solved.add(hashed)
    tracer.add("netwalk.hitting_matrix", "repeats", int(repeat))
    unknowns = len(set(kernel.nodes) - set(absorbing))
    tracer.add("netwalk.hitting_matrix", "unknowns", unknowns)


def _after_ball(tracer: Tracer, args, result) -> None:
    tracer.add("buildings.A2Ball.build", "vertices", len(args[0].vertices))


def _after_neighbor_classes(tracer: Tracer, args, result) -> None:
    tracer.add("buildings.A2Ball.neighbor_classes", "candidates", len(result))


_BEFORE = {"netwalk.hitting_matrix": _before_hitting}
_AFTER = {
    "buildings.A2Ball.build": _after_ball,
    "buildings.A2Ball.neighbor_classes": _after_neighbor_classes,
}
