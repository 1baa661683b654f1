"""Span tracer for the traced benchmark run.

The tracer wraps every public function of the eight package modules, and
every public method of the classes they define, at every place the
function object is bound: the defining module, each ``brnr`` module that
imported it by name, and the class namespace for methods.  Each call then
records a span (name, start, end, parent span, job id).  Spans stay in
memory until :meth:`Tracer.write` is called at the end of the run.

Layer counters are read at the same boundaries, from the arguments and
results of the wrapped calls, so no file under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("groups", "zmod", "cohomology", "extensions", "engine", "fastpath",
          "localeval", "cli")


def _count_snf(tr, args, kwargs, result):
    rows, cols = result.shape
    tr.counters["zmod.snf_calls"] += 1
    tr.counters["zmod.snf_cells"] += rows * cols


def _count_kernel(tr, args, kwargs, result):
    tr.counters["zmod.kernel_calls"] += 1


def _count_echelon_add(tr, args, kwargs, result):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    tr.counters["zmod.echelon_rows_in"] += int(len(batch))


def _count_echelon_matrix(tr, args, kwargs, result):
    tr.counters["zmod.echelon_rows_kept"] += int(result.shape[0])


def _count_dies(tr, args, kwargs, result):
    tr.counters["cohomology.dies_in_qz_calls"] += 1


def _count_class_module(tr, args, kwargs, result):
    gal = args[0] if args else kwargs["gal"]
    n_atoms = int(result._space.expr.shape[2])
    tr.counters["extensions.class_module_unknowns"] += (
        n_atoms + (gal.delta.order - 1) * (gal.G.order - 1))


def _count_br_nr(tr, args, kwargs, result):
    tr.counters["engine.classes_scanned"] += len(result.tested)
    tr.counters["engine.classes_passing"] += sum(1 for _, ok, _ in result.tested if ok)


def _count_sha1_bic(tr, args, kwargs, result):
    sd = args[0] if args else kwargs["sd"]
    tr.counters["fastpath.h1_unknowns"] += (sd.Q.order - 1) * sd.N_hat.rank


def _count_nonabelian_h1(tr, args, kwargs, result):
    ld = args[0] if args else kwargs["ld"]
    gal = args[1] if len(args) > 1 else kwargs["gal"]
    tr.counters["localeval.nonabelian_h1_calls"] += 1
    tr.counters["localeval.h1_candidates"] += gal.G.order ** len(ld.generators)
    tr.counters["localeval.h1_points"] += len(result)


def _count_evaluate(tr, args, kwargs, result):
    tr.counters["localeval.evaluations"] += 1


def _count_bm_report(tr, args, kwargs, result):
    tr.counters["localeval.tuple_rows"] += len(result.tuple_rows)


def _count_bicyclic(tr, args, kwargs, result):
    tr.counters["groups.bicyclic_subgroups"] += len(result)


# qualified name -> hook(tracer, args, kwargs, result), run after the call
COUNTER_HOOKS = {
    "zmod.smith_normal_form_raw": _count_snf,
    "zmod.kernel": _count_kernel,
    "zmod.RowEchelon.add": _count_echelon_add,
    "zmod.RowEchelon.matrix": _count_echelon_matrix,
    "cohomology.dies_in_qz": _count_dies,
    "extensions.class_module": _count_class_module,
    "engine.br_nr": _count_br_nr,
    "fastpath.sha1_bic": _count_sha1_bic,
    "localeval.nonabelian_h1": _count_nonabelian_h1,
    "localeval.evaluate": _count_evaluate,
    "localeval.bm_report": _count_bm_report,
    "groups.subgroups_bicyclic": _count_bicyclic,
}


class Tracer:
    """In-memory spans and counters; install() rebinds, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []           # span name table
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []          # [name_id, start, end, parent, job]
        self.counters: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        name_id = self._name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        hook = COUNTER_HOOKS.get(qualname)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public surface of every layer wherever it is bound."""
        modules = [importlib.import_module(f"brnr.{name}") for name in LAYERS]
        replaced: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # rebind module-level names in every loaded brnr module
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "brnr" or mod_name.startswith("brnr.")):
                continue
            for attr, obj in list(vars(mod).items()):
                new = replaced.get(id(obj))
                if new is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, new)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(f"{layer}.{cls.__name__}.{attr}",
                                              raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(f"{layer}.{cls.__name__}.{attr}", raw)
            else:
                continue                       # properties, cached values
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self, job_scale: list[float]) -> dict[str, float]:
        """Seconds spent in each layer's own code, children subtracted.

        Each span's self time is multiplied by its job's factor from wall
        seconds to reference seconds (see speed.py).
        """
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = {layer: 0.0 for layer in LAYERS}
        for i, (name_id, start, end, _, job) in enumerate(self.spans):
            out[layer_of[name_id]] += ((end - start) - child[i]) * job_scale[job]
        return out

    def counter_metrics(self) -> dict[str, float]:
        """The per-layer counts, plus passing over tested classes in br_nr."""
        c = self.counters
        names = ["zmod.snf_calls", "zmod.snf_cells", "zmod.kernel_calls",
                 "zmod.echelon_rows_in", "zmod.echelon_rows_kept",
                 "cohomology.dies_in_qz_calls", "extensions.class_module_unknowns",
                 "engine.classes_scanned", "fastpath.h1_unknowns",
                 "localeval.nonabelian_h1_calls", "localeval.h1_candidates",
                 "localeval.h1_points", "localeval.evaluations",
                 "localeval.tuple_rows", "groups.bicyclic_subgroups"]
        out = {name: c[name] for name in names}
        scanned = c["engine.classes_scanned"]
        out["engine.unramified_ratio"] = (c["engine.classes_passing"] / scanned
                                          if scanned else 0.0)
        return out

    def write(self, path: Path) -> None:
        """Write the span table as JSON: names plus one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "columns": ["name", "start_s", "end_s", "parent", "job"],
                "names": self.names,
                "spans": self.spans,
                "counters": dict(self.counters),
            }, fh, separators=(",", ":"))
