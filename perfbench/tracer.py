"""Per-layer tracing of the auxfield package from outside.

``Tracer.install()`` replaces every public function of the traced
modules with a timing wrapper at *every* binding site: the defining
module, every other ``auxfield.*`` module that imported it by name, and
module-level dicts that hold it.  Each wrapper records a span; a span's
self time is its duration minus the time covered by the spans it caused.
Counts and times are kept in memory and read with ``snapshot()``.

``PotentialModel.v`` is hooked as a counter only: calls made while a
``solve_radial`` span is open are the oracle's energy evaluations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACE_MARK = "perfbench-trace "   # prefixes a child's snapshot on stderr

LAYERS = ("afm", "exact", "observables", "overlaps", "specfun", "oracle",
          "tables", "cli")

# Names ending in .calls/.errors/.self_s read the span of that function;
# the others are derived in per_layer_metrics().
PER_LAYER = [
    "oracle.solve_radial.calls", "oracle.solve_radial.self_s",
    "oracle.solve_radial.errors",
    "oracle.numeric_observables.calls", "oracle.numeric_observables.self_s",
    "oracle.numeric_observables.errors",
    "oracle.energy_evals_per_solve",
    "tables.oracle_state.calls", "tables.oracle_state.hit_ratio",
    "tables.build_table.self_s", "tables.format_rows.self_s",
    "overlaps.numeric_overlap.calls", "overlaps.numeric_overlap.self_s",
    "overlaps.afm_pair_overlap.self_s",
    "observables.mean_hamiltonian.calls", "observables.mean_hamiltonian.self_s",
    "observables.mean_potential.self_s", "observables.afm_observable_set.self_s",
    "exact.linear_s_state.self_s", "exact.linear_s_observables.self_s",
    "exact.hydrogen_observables.self_s", "exact.oscillator_observables.self_s",
    "exact.hydrogen_r_moment.self_s", "exact.oscillator_r_moment.self_s",
    "afm.afm_solve.calls", "afm.afm_solve.self_s",
    "afm.tangent_check.self_s", "afm.tangent_check.not_ok",
    "specfun.airy_ai.calls", "specfun.airy_ai.self_s",
    "specfun.lambert_w.calls", "specfun.lambert_w.self_s",
    "specfun.airy_zero.self_s", "specfun.laguerre.self_s",
    "cli.main.self_s",
    "trace.attributed_frac", "trace.overhead_frac",
]


def public_functions(module):
    """Functions (plain or lru-cached) that ``module`` defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "auxfield" or name.startswith("auxfield."))]


class _Stat:
    __slots__ = ("calls", "errors", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}          # "layer.function" -> _Stat
        self.originals = {}      # "layer.function" -> original callable
        self.not_ok = 0          # tangent_check reports with ok == False
        self.energy_evals = 0    # PotentialModel.v calls under solve_radial
        self._stack = []         # child-time accumulators of open spans
        self._open_solves = 0
        self._patched = []       # (namespace dict, key, original)
        self._model_cls = None
        self._model_v = None

    # ------------------------------------------------------------------
    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        clock = time.perf_counter
        is_solve = key == "oracle.solve_radial"
        is_tangent = key == "afm.tangent_check"
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            if is_solve:
                tracer._open_solves += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if is_solve:
                    tracer._open_solves -= 1
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if is_tangent and not out.ok:
                tracer.not_ok += 1
            return out

        span.__traced__ = True
        return span

    def install(self):
        """Patch every binding of every public function of LAYERS."""
        from auxfield.afm import PotentialModel

        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"auxfield.{layer}")
            for name, fn in public_functions(module).items():
                key = f"{layer}.{name}"
                self.originals[key] = fn
                wrappers[id(fn)] = self._wrap(key, fn)

        for module in package_modules():
            self._patch_namespace(vars(module), wrappers)
            for value in list(vars(module).values()):
                if isinstance(value, dict):
                    self._patch_namespace(value, wrappers)

        original_v = PotentialModel.v
        tracer = self

        @functools.wraps(original_v)
        def counted_v(model, r):
            if tracer._open_solves:
                tracer.energy_evals += 1
            return original_v(model, r)

        counted_v.__traced__ = True
        self._model_cls, self._model_v = PotentialModel, original_v
        PotentialModel.v = counted_v
        return self

    def _patch_namespace(self, ns, wrappers):
        for key, value in list(ns.items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                self._patched.append((ns, key, value))
                ns[key] = wrapper

    def uninstall(self):
        for ns, key, value in reversed(self._patched):
            ns[key] = value
        self._patched.clear()
        if self._model_cls is not None:
            self._model_cls.v = self._model_v
            self._model_cls = None

    # ------------------------------------------------------------------
    def snapshot(self):
        """Plain-data copy of the counters, mergeable across processes."""
        cached = self.originals.get("tables.oracle_state")
        return {"stats": {k: [s.calls, s.errors, s.self_s, s.total_s]
                          for k, s in self.stats.items()},
                "not_ok": self.not_ok, "energy_evals": self.energy_evals,
                "oracle_state_hits": cached.cache_info().hits if cached else 0}


def merge(total, snap):
    """Add snapshot ``snap`` into snapshot ``total`` (either may be empty)."""
    for key, rec in snap.get("stats", {}).items():
        acc = total.setdefault("stats", {}).setdefault(key, [0, 0, 0.0, 0.0])
        for i, value in enumerate(rec):
            acc[i] += value
    for key in ("not_ok", "energy_evals", "oracle_state_hits"):
        total[key] = total.get(key, 0) + snap.get(key, 0)
    return total


def per_layer_metrics(snap, traced_s, untraced_s):
    """The PER_LAYER metric values from a snapshot and the two wall times."""
    stats = snap["stats"]

    def field(key, idx):
        rec = stats.get(key)
        return rec[idx] if rec else 0

    values = {}
    for name in PER_LAYER:
        key, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = (field(key, 0), "count")
        elif kind == "errors":
            values[name] = (field(key, 1), "count")
        elif kind == "self_s":
            values[name] = (float(field(key, 2)), "s")
    solves = field("oracle.solve_radial", 0)
    values["oracle.energy_evals_per_solve"] = (
        snap["energy_evals"] / solves if solves else 0.0, "count")
    lookups = field("tables.oracle_state", 0)
    values["tables.oracle_state.hit_ratio"] = (
        snap["oracle_state_hits"] / lookups if lookups else 0.0, "ratio")
    values["afm.tangent_check.not_ok"] = (snap["not_ok"], "count")
    attributed = sum(rec[2] for rec in stats.values())
    values["trace.attributed_frac"] = (attributed / traced_s, "ratio")
    values["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return values
