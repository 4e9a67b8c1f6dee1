"""Per-layer tracing of corostab from outside the package.

``Tracer.install()`` replaces the public functions of ``cli``, ``protocols``,
``stability``, ``rates`` and ``materials`` with span-recording wrappers, and
the material kernels and ``tensor3`` functions with counting wrappers.  It
rebinds every module attribute that holds the original function, including
the names other modules bound with ``from ... import``, so calls through any
binding are seen.  ``uninstall()`` puts the originals back.  No package file
changes.

Spans are (name, start, end, parent, operation id), kept in memory.  Kernel
and ``tensor3`` calls are too numerous for one span each (tens of thousands
per sweep), so they are counted and timed in aggregate; their outermost
time is charged to the enclosing span as child time, so a span's self time
is its duration minus its child spans and kernel calls.
"""

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

SPAN_LAYERS = ("cli", "protocols", "stability", "rates", "materials")
KERNELS = ("ghat", "ghat_grad", "ghat_hess", "extra_tau", "cauchy_principal")
LAYERS = SPAN_LAYERS + ("tensor3",)


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


def _states(a, trailing):
    shape = np.shape(a)
    n = 1
    for d in shape[: len(shape) - trailing]:
        n *= d
    return n


class Tracer:
    def __init__(self):
        self.names = []  # span name table
        # [name_id, start, end, parent, op, child_ns, kernel_calls, states]
        self.spans = []
        self.stack = []
        self.op = -1
        self.leaf_depth = 0
        self.leaf = defaultdict(lambda: [0, 0, 0])  # key -> [calls, states, ns]
        self.fn_calls = defaultdict(int)
        self.errors = defaultdict(int)
        self._patched = []  # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------
    def _span(self, layer, name, fn, states_of=None):
        name_id = len(self.names)
        self.names.append(f"{layer}.{name}")
        spans, stack, errors = self.spans, self.stack, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name_id, 0, 0, parent, self.op, 0, 0,
                   states_of(args) if states_of else 0]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[1] = t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                rec[2] = t1 = perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += t1 - t0

        return wrapper

    def _leaf(self, layer, name, fn, trailing, method):
        """Counting wrapper; ``trailing`` is the number of trailing axes of
        the first array argument that make up one state."""
        spans, stack, errors, leaf, fn_calls = self.spans, self.stack, self.errors, self.leaf, self.fn_calls
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fn_calls[key] += 1
            if self.leaf_depth:
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    errors[layer] += 1
                    raise
            self.leaf_depth = 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                dt = perf_counter_ns() - t0
                self.leaf_depth = 0
                if method:
                    group = f"materials.kernel.{args[0].kind}"
                    n = _states(args[1], trailing) if len(args) > 1 else 1
                else:
                    group = "tensor3"
                    n = _states(args[0], trailing) if args else 1
                acc = leaf[group]
                acc[0] += 1
                acc[1] += n
                acc[2] += dt
                if stack:
                    top = spans[stack[-1]]
                    top[5] += dt
                    if method:
                        top[6] += 1

        return wrapper

    # -- install -------------------------------------------------------------
    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "corostab" and not modname.startswith("corostab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        import corostab.materials as materials
        import corostab.tensor3 as tensor3

        for layer in SPAN_LAYERS:
            mod = importlib.import_module(f"corostab.{layer}")
            for name, fn in list(_public_functions(mod)):
                states_of = None
                if fn is materials.energy_from_F:
                    def states_of(args):
                        return _states(args[1], 2)
                self._rebind(fn, self._span(layer, name, fn, states_of))
        for name, fn in list(_public_functions(tensor3)):
            self._rebind(fn, self._leaf("tensor3", name, fn, 2, method=False))
        classes = {c for c in vars(materials).values()
                   if inspect.isclass(c) and issubclass(c, materials.MaterialModel)}
        for cls in classes:
            for name in KERNELS:
                fn = cls.__dict__.get(name)
                if fn is not None:
                    self._patched.append((cls, name, fn))
                    setattr(cls, name, self._leaf("materials", name, fn, 1, method=True))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------
    def dump(self, path, t_origin):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": [[self.names[s[0]], s[1] - t_origin, s[2] - t_origin, s[3], s[4]]
                                 for s in self.spans]}, fh, separators=(",", ":"))

    def metrics(self, scanned_states):
        """Per-layer metrics of everything recorded since construction."""
        names = self.names
        per = defaultdict(lambda: [0, 0, 0])  # name -> [calls, ns, self_ns]
        layer_ns = defaultdict(int)
        for s in self.spans:
            nm = names[s[0]]
            dur = s[2] - s[1]
            acc = per[nm]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - s[5]
            layer = nm.split(".", 1)[0]
            if s[3] < 0 or names[self.spans[s[3]][0]].split(".", 1)[0] != layer:
                layer_ns[layer] += dur  # outermost span of its layer

        def nearest(idx, target):
            p = self.spans[idx][3]
            while p >= 0:
                if names[self.spans[p][0]] == target:
                    return p
                p = self.spans[p][3]
            return -1

        closures_in_moduli = 0
        kernel_in_closure = 0
        for i, s in enumerate(self.spans):
            nm = names[s[0]]
            if nm == "protocols.lateral_closure":
                kernel_in_closure += s[6]
                if nearest(i, "protocols.incremental_moduli") >= 0:
                    closures_in_moduli += 1
        efF_states = 0
        efF_in_probe = 0
        for i, s in enumerate(self.spans):
            if names[s[0]] == "materials.energy_from_F":
                n = s[7]
                efF_states += n
                if nearest(i, "stability.lh_ellipticity_probe") >= 0:
                    efF_in_probe += n

        def c(name):
            return per[name][0]

        def sec(name):
            return per[name][1] / 1e9

        def self_s(name):
            return per[name][2] / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        m["protocols.incremental_moduli.calls"] = c("protocols.incremental_moduli")
        m["protocols.incremental_moduli.s"] = sec("protocols.incremental_moduli")
        m["protocols.incremental_moduli.closures_per_call"] = ratio(
            closures_in_moduli, c("protocols.incremental_moduli"))
        m["protocols.lateral_closure.calls"] = c("protocols.lateral_closure")
        m["protocols.lateral_closure.s"] = sec("protocols.lateral_closure")
        m["protocols.lateral_closure.kernel_calls_per_call"] = ratio(
            kernel_in_closure, c("protocols.lateral_closure"))
        m["protocols.sweep.calls"] = c("protocols.sweep")
        m["protocols.sweep.self_s"] = self_s("protocols.sweep")
        m["materials.energy_from_F.calls"] = c("materials.energy_from_F")
        m["materials.energy_from_F.states"] = efF_states
        m["materials.energy_from_F.s"] = sec("materials.energy_from_F")
        m["materials.energy_from_F.states_per_scanned_state"] = ratio(efF_states, scanned_states)
        tot = [0, 0, 0]
        for kind_group, acc in sorted(self.leaf.items()):
            if not kind_group.startswith("materials.kernel."):
                continue
            for i in range(3):
                tot[i] += acc[i]
        m["materials.kernel.calls"] = tot[0]
        m["materials.kernel.states"] = tot[1]
        m["materials.kernel.s"] = tot[2] / 1e9
        m["materials.kernel.states_per_s"] = ratio(tot[1], tot[2] / 1e9)
        from corostab.materials import MODEL_KINDS

        for kind in MODEL_KINDS:
            acc = self.leaf.get(f"materials.kernel.{kind}", [0, 0, 0])
            m[f"materials.kernel.{kind}.calls"] = acc[0]
            m[f"materials.kernel.{kind}.states"] = acc[1]
            m[f"materials.kernel.{kind}.s"] = acc[2] / 1e9
            m[f"materials.kernel.{kind}.states_per_s"] = ratio(acc[1], acc[2] / 1e9)
        for name in KERNELS:
            m[f"materials.{name}.calls"] = self.fn_calls.get(f"materials.{name}", 0)
        m["stability.region_scan.calls"] = c("stability.region_scan")
        m["stability.region_scan.s"] = sec("stability.region_scan")
        m["stability.region_scan.self_s"] = self_s("stability.region_scan")
        m["stability.lh_ellipticity_probe.calls"] = c("stability.lh_ellipticity_probe")
        m["stability.lh_ellipticity_probe.s"] = sec("stability.lh_ellipticity_probe")
        m["stability.lh_ellipticity_probe.energy_states_per_call"] = ratio(
            efF_in_probe, c("stability.lh_ellipticity_probe"))
        m["stability.tangent.calls"] = c("stability.tsts_tangent") + c("stability.hill_tangent")
        m["stability.tangent.s"] = sec("stability.tsts_tangent") + sec("stability.hill_tangent")
        m["stability.be_te_check.calls"] = c("stability.be_te_check")
        m["stability.be_te_check.s"] = sec("stability.be_te_check")
        m["rates.calls"] = sum(v[0] for k, v in per.items() if k.startswith("rates."))
        m["rates.s"] = layer_ns["rates"] / 1e9
        m["tensor3.eig_sym.calls"] = self.fn_calls.get("tensor3.eig_sym", 0)
        m["tensor3.logm_spd.calls"] = self.fn_calls.get("tensor3.logm_spd", 0)
        m["tensor3.s"] = self.leaf["tensor3"][2] / 1e9
        m["cli.calls"] = c("cli.main")
        m["cli.s"] = sec("cli.main")
        m["cli.self_s"] = sum(v[2] for k, v in per.items() if k.startswith("cli.")) / 1e9
        for layer in LAYERS:
            m[f"{layer}.errors"] = self.errors.get(layer, 0)
        m["trace.spans"] = len(self.spans)
        return m
