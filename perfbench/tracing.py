"""Per-layer tracing for one benchmark child process.

Three instruments, all installed from here and none inside the program:

* spans: a wrapper around each entry function of the coarse layers (the
  checks, the preset constructors, the expression front end) records
  ``(id, parent, name, start, end)``.  A layer is busy while at least one of
  its spans is open.
* counters: the scalar and kernel functions that run hundreds of thousands to
  millions of times (series and field arithmetic, normal forms, tensor
  products, polynomial gcd and reduction) get a call count and their
  inclusive time instead of one span per call.
* a sampling profiler: a ``SIGPROF`` timer looks at the running frame every
  few milliseconds of CPU time and charges the sample to the layer whose file
  the frame belongs to (stdlib frames other than ``fractions`` are charged to
  their caller).  A layer's self time is its share of the samples times the
  CPU time sampled, so the cost of the tracing itself does not skew it the
  way a per-call profiler would.

Everything is held in memory and written once when the run ends.
"""

from __future__ import annotations

import fractions
import functools
import gc
import importlib
import itertools
import json
import signal
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "algebras", "hopf", "rmat", "contraction", "repfrt",
          "diffrep", "expr", "ncalg", "ratfunc", "coeff")

# Entry functions that get a span: "name" is a module-level function,
# "Class.name" a method.  Chosen to be called at most a few thousand times
# per run, so that the span list stays small.
SPANNED = {
    "cli": ("main",),
    "algebras": ("preset", "build_preset", "classical_presentation",
                 "build_twocopy", "jbasis_maps", "check_basis_change",
                 "cross_check_two_copy", "check_classical_limits",
                 "check_casimir_centrality"),
    "hopf": ("HopfMaps.run_all_checks", "HopfMaps.check_coassociativity",
             "HopfMaps.check_counit", "HopfMaps.check_antipode",
             "HopfMaps.check_coproduct_hom", "HopfMaps.check_antipode_antihom",
             "HopfMaps.subalgebra_check", "HopfMaps.coproduct",
             "HopfMaps.coproduct_word", "HopfMaps.antipode_of",
             "HopfMaps.delta_on_slot"),
    "rmat": ("build_universal_r", "preset_r", "qybe_residual",
             "intertwiner_residual", "triangularity_residual",
             "extract_classical_r", "classical_r_of_preset", "cybe_residual",
             "check_qybe", "check_intertwiner", "check_triangularity",
             "check_classical_r", "check_cybe", "check_cocommutator_link",
             "check_factorization", "check_np_cocommutator_table"),
    "contraction": ("contract_so22", "Contraction.check_commutators",
                    "Contraction.check_coproducts", "Contraction.check_casimirs",
                    "Contraction.check_classical_compatibility"),
    "repfrt": ("check_matrix_rep", "matrix_r", "check_matrix_r",
               "orthogonality_groebner", "sklyanin_table",
               "expected_poisson_table", "check_poisson_table",
               "check_poisson_jacobi", "quantum_presentation", "check_rtt",
               "check_weyl_correspondence", "group_coproduct",
               "expected_group_coproduct", "check_group_coproduct",
               "quantum_plane", "check_quantum_plane"),
    "diffrep": ("run_diffrep_checks", "build_stability_rep",
                "hamiltonian_multiplier", "f1_derivative_coefficient",
                "build_dynamical_rep", "full_rep", "check_rep_relations",
                "resolve_f1_reading", "check_casimir_action",
                "hamiltonian_series", "check_hamiltonian",
                "check_two_evaluation_paths"),
    "expr": ("parse_to_element", "render_element", "render_tensor"),
    "ncalg": ("AlgebraPresentation.consistency_check",
              "AlgebraPresentation.normalize", "TensorElement.exp",
              "TensorElement.substitute", "NCElement.substitute"),
}

# Hot functions that get a counter: metric stem -> (layer, function).
COUNTED = {
    "coeff.series_mul": ("coeff", "DeformationSeries.__mul__"),
    "coeff.series_add": ("coeff", "DeformationSeries.__add__"),
    "coeff.series_zero": ("coeff", "DeformationSeries.zero"),
    "coeff.field_mul": ("coeff", "FieldElem.__mul__"),
    "ncalg.nf": ("ncalg", "AlgebraPresentation.normal_form_of_word"),
    "ncalg.nf_miss": ("ncalg", "AlgebraPresentation._rewrite"),
    "ncalg.tensor_mul": ("ncalg", "TensorElement.__mul__"),
    "ratfunc.groebner": ("ratfunc", "groebner"),
    "ratfunc.gcd": ("ratfunc", "poly_gcd"),
    "ratfunc.reduce": ("ratfunc", "reduce_poly"),
}

BUSY_LAYERS = ("hopf", "rmat", "repfrt", "diffrep", "contraction")
TIMED_STEMS = ("coeff.series_mul", "coeff.series_add", "coeff.series_zero",
               "coeff.field_mul", "ncalg.tensor_mul", "ratfunc.gcd",
               "ratfunc.reduce")

SAMPLE_INTERVAL_S = 0.002


def per_layer_units():
    """(name, unit) of every figure ``Tracer.metrics`` reports."""
    out = [(f"{layer}.self_s", "s") for layer in LAYERS + ("fractions", "harness")]
    out += [(f"{layer}.busy_s", "s") for layer in BUSY_LAYERS]
    for stem in TIMED_STEMS:
        out += [(f"{stem}_calls", "count"), (f"{stem}_s", "s")]
    out += [("ncalg.nf_calls", "count"), ("ncalg.nf_misses", "count"),
            ("ncalg.nf_hit_ratio", "ratio"), ("ncalg.nf_miss_s", "s"),
            ("ncalg.nf_cache_entries", "count"), ("ncalg.tensor_terms", "count"),
            ("ratfunc.groebner_s", "s"), ("hopf.coproduct_word_calls", "count"),
            ("rmat.universal_r_builds", "count"), ("expr.parse_s", "s"),
            ("expr.render_s", "s"), ("algebras.preset_build_s", "s")]
    return out


def _modules():
    return {name: importlib.import_module(f"hopf_forge.{name}") for name in LAYERS}


def _replace_everywhere(modules, original, replacement):
    """Point every module-level alias of ``original`` at ``replacement``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _patch(modules, mod, qualname, make_wrapper):
    """Wrap function or method ``qualname`` of ``mod`` with ``make_wrapper(fn)``."""
    if "." not in qualname:
        original = getattr(mod, qualname)
        _replace_everywhere(modules, original, functools.wraps(original)(
            make_wrapper(original)))
        return
    cls_name, attr = qualname.split(".")
    cls = getattr(mod, cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(functools.wraps(raw.__func__)(
            make_wrapper(raw.__func__))))
        return
    wrapper = functools.wraps(raw)(make_wrapper(raw))
    for name, value in list(cls.__dict__.items()):
        if value is raw:  # aliases such as ``__rmul__ = __mul__``
            setattr(cls, name, wrapper)


class Tracer:
    """Spans, counters and layer samples for one process; install once."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._open = []
        self._layer_depth = defaultdict(int)
        self._layer_since = {}
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.tensor_terms = 0
        self.samples = defaultdict(int)
        self._layer_of_file = {}
        self._cpu0 = None
        self.cpu_s = 0.0
        self.modules = None

    # -- spans ----------------------------------------------------------------

    def _enter(self, layer, name):
        parent = self._open[-1][0] if self._open else None
        sid = next(self._ids)
        start = time.perf_counter()
        self._open.append((sid, parent, name, start))
        if self._layer_depth[layer] == 0:
            self._layer_since[layer] = start
        self._layer_depth[layer] += 1

    def _exit(self, layer):
        end = time.perf_counter()
        sid, parent, name, start = self._open.pop()
        self.spans.append((sid, parent, name, start, end))
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.busy[layer] += end - self._layer_since[layer]

    def _span_wrapper(self, layer, name):
        def make(fn):
            def traced(*args, **kwargs):
                self._enter(layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(layer)
            return traced
        return make

    def _plan_entry_wrapper(self, fn):
        """Span per verify-plan entry, named after the check it runs."""
        def traced(label, *args, **kwargs):
            self._enter("cli", f"cli.{label[0]}")
            try:
                return fn(label, *args, **kwargs)
            finally:
                self._exit("cli")
        return traced

    # -- counters -------------------------------------------------------------

    def _counter_wrapper(self, stem):
        """Count every call; time only the outermost, as poly_gcd recurses."""
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter
        depth = [0]

        def make(fn):
            def counted(*args, **kwargs):
                calls[stem] += 1
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
                t = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[stem] += clock() - t
                    depth[0] = 0
            return counted
        return make

    def _tensor_mul_wrapper(self, fn):
        counted = self._counter_wrapper("ncalg.tensor_mul")(fn)

        def tensor_mul(*args, **kwargs):
            out = counted(*args, **kwargs)
            if out is not NotImplemented:
                self.tensor_terms += len(out.terms)
            return out
        return tensor_mul

    # -- sampling -------------------------------------------------------------

    def _on_sample(self, signum, frame):
        layer_of = self._layer_of_file
        f = frame
        while f is not None:
            layer = layer_of.get(f.f_code.co_filename)
            if layer is not None:
                self.samples[layer] += 1
                return
            f = f.f_back
        self.samples["other"] += 1

    # -- lifecycle ------------------------------------------------------------

    def install(self):
        mods = _modules()
        self.modules = mods
        everything = list(mods.values())
        for layer, names in SPANNED.items():
            for qualname in names:
                _patch(everything, mods[layer], qualname,
                       self._span_wrapper(layer, f"{layer}.{qualname}"))
        _patch(everything, mods["cli"], "_run_timed", self._plan_entry_wrapper)
        for stem, (layer, qualname) in COUNTED.items():
            make = (self._tensor_mul_wrapper if stem == "ncalg.tensor_mul"
                    else self._counter_wrapper(stem))
            _patch(everything, mods[layer], qualname, make)
        self._layer_of_file = {mod.__file__: name for name, mod in mods.items()}
        self._layer_of_file[fractions.__file__] = "fractions"
        for path in Path(__file__).resolve().parent.glob("*.py"):
            self._layer_of_file[str(path)] = "harness"

    def start(self):
        self._cpu0 = time.process_time()
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.cpu_s = time.process_time() - self._cpu0

    # -- results --------------------------------------------------------------

    def nf_cache_entries(self):
        ncalg = self.modules["ncalg"]
        return sum(len(o._nf_cache) for o in gc.get_objects()
                   if isinstance(o, ncalg.AlgebraPresentation))

    def metrics(self):
        """Per-layer figures of the traced run, by metric name."""
        total = sum(self.samples.values()) or 1
        out = {}
        for layer in LAYERS + ("fractions",):
            out[f"{layer}.self_s"] = self.cpu_s * self.samples[layer] / total
        out["harness.self_s"] = self.cpu_s * self.samples["harness"] / total
        for layer in BUSY_LAYERS:
            out[f"{layer}.busy_s"] = self.busy[layer]
        for stem in TIMED_STEMS:
            out[f"{stem}_calls"] = self.calls[stem]
            out[f"{stem}_s"] = self.seconds[stem]
        nf, miss = self.calls["ncalg.nf"], self.calls["ncalg.nf_miss"]
        out["ncalg.nf_calls"] = nf
        out["ncalg.nf_misses"] = miss
        out["ncalg.nf_hit_ratio"] = (nf - miss) / nf if nf else 0.0
        out["ncalg.nf_miss_s"] = self.seconds["ncalg.nf_miss"]
        out["ncalg.nf_cache_entries"] = self.nf_cache_entries()
        out["ncalg.tensor_terms"] = self.tensor_terms
        out["ratfunc.groebner_s"] = self.seconds["ratfunc.groebner"]
        by_name = defaultdict(float)
        count = defaultdict(int)
        for _, _, name, start, end in self.spans:
            by_name[name] += end - start
            count[name] += 1
        out["hopf.coproduct_word_calls"] = count["hopf.HopfMaps.coproduct_word"]
        out["rmat.universal_r_builds"] = count["rmat.build_universal_r"]
        out["expr.parse_s"] = by_name["expr.parse_to_element"]
        out["expr.render_s"] = (by_name["expr.render_element"]
                                + by_name["expr.render_tensor"])
        out["algebras.preset_build_s"] = self._outermost_time("algebras.preset")
        for name, secs in by_name.items():
            if name.startswith("cli.") and name != "cli.main":  # plan entries
                out[f"{name}_s"] = secs
        return out

    def _outermost_time(self, name):
        """Time inside spans called ``name`` that are not nested in one another."""
        parent_of = {sid: (parent, n) for sid, parent, n, _, _ in self.spans}
        total = 0.0
        for sid, parent, n, start, end in self.spans:
            if n != name:
                continue
            p = parent
            while p is not None and parent_of[p][1] != name:
                p = parent_of[p][0]
            if p is None:
                total += end - start
        return total

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [{"id": s, "parent": p, "name": n, "start": a, "end": b}
                      for s, p, n, a, b in self.spans],
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "samples": dict(self.samples),
            "sample_interval_s": SAMPLE_INTERVAL_S,
            "cpu_s": self.cpu_s,
        }
        path.write_text(json.dumps(doc))

