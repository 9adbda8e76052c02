"""In-memory span tracing around padicdyn's public functions and methods.

``Tracer.install`` wraps every public function of the package's modules and
every public method (plus construction and arithmetic dunders) of the
classes they define, and rebinds each reference the package's modules hold,
so calls between modules go through the wrappers too.  Each call becomes a
span with a name, a start, an end and a parent.  Self time (the span minus
the part its child spans cover) is summed per layer as spans close; the
spans themselves are kept in memory and written out by ``dump``.

Spans of the hot leaf calls (core arithmetic, digit lookups, table
accessors) are timed and counted but not stored, because a stored span
costs more than the lookup it records; every other span is stored up to
``SPAN_CAP``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("core", "maps", "mahler", "analysis", "shadowing", "conjugacy",
          "oracle", "cli")
_DUNDERS = {"__post_init__", "__add__", "__sub__", "__mul__", "__neg__"}
_UNSTORED = {"maps.DigitFunctionTable.digit_value", "maps.DigitFunctionTable.arity",
             "maps.DigitFunctionTable.has_digit"}
_BUILDERS = {"maps.random_table", "maps.extract_table", "maps.iterate_table",
             "maps.materialize_table"}
_H_FORWARD = {"conjugacy.conjugate_to_shift", "conjugacy.conjugate_nearby",
              "conjugacy.affine_shell_conjugacy", "conjugacy.qp_affine_conjugacy"}
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.calls = []
        self.self_s = {layer: 0.0 for layer in LAYERS + ("bench",)}
        self.spans = []
        self.dropped = 0
        self.counts = dict.fromkeys(
            ("eval_calls", "digit_lookups", "solve_lookups", "solve_digits",
             "table_entries_built", "dilatation_sweeps", "h_evals",
             "verify_samples", "pairs_checked", "points_enumerated"), 0)
        self.build_s = 0.0
        self._depth = {"solve": 0, "verify": 0, "build": 0}
        self._stack = [[0.0, -1]]
        self._next_id = 0
        self._restore = []
        self._bench = {}

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def span(self, name: str, fn):
        """Run fn() inside a benchmark span of the given name."""
        runner = self._bench.get(name)
        if runner is None:
            runner = self._bench[name] = self._wrap(lambda f: f(), name, "bench")
        return runner(fn)

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter
        store = layer != "core" and name not in _UNSTORED
        hook = self._hook(name, fn)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [0.0, sid]
            parent = stack[-1][1]
            stack.append(frame)
            if hook is not None:
                hook(True, args, kwargs, None, 0.0)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                self_s[layer] += d - frame[0]
                stack[-1][0] += d
                calls[nid] += 1
                if store:
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, parent, nid, t0, t1))
                    else:
                        tracer.dropped += 1
                if hook is not None:
                    hook(False, args, kwargs, result, d)

        return wrapper

    def _hook(self, name: str, fn):
        """Counter updates for the calls the per-layer metrics name.

        A hook runs on entry (result None) and on exit; on exit after an
        exception the result is None and only depth bookkeeping happens.
        """
        c, depth = self.counts, self._depth
        if name == "maps.DigitFunctionTable.digit_value":
            def hook(enter, args, kwargs, result, d):
                if enter:
                    c["digit_lookups"] += 1
                    if depth["solve"]:
                        c["solve_lookups"] += 1
            return hook
        if name == "maps.DigitFunctionTable.eval" or (
                name.startswith("maps.") and name.endswith(".apply")):
            def hook(enter, args, kwargs, result, d):
                if enter:
                    c["eval_calls"] += 1
            return hook
        if name == "shadowing.shadow_locally_scaling":
            def hook(enter, args, kwargs, result, d):
                depth["solve"] += 1 if enter else -1
                if result is not None:
                    c["solve_digits"] += result.point.precision
            return hook
        if name == "shadowing.shadow_dilatation":
            def hook(enter, args, kwargs, result, d):
                if result is not None:
                    c["dilatation_sweeps"] += result.details["iterations"]
            return hook
        if name == "conjugacy.verify_conjugacy":
            def hook(enter, args, kwargs, result, d):
                depth["verify"] += 1 if enter else -1
                if result is not None:
                    c["verify_samples"] += result.samples_checked
            return hook
        if name in _H_FORWARD:
            def hook(enter, args, kwargs, result, d):
                if enter and depth["verify"]:
                    c["h_evals"] += 1
            return hook
        if name in ("analysis.verify_scaling", "analysis.expansivity_check"):
            def hook(enter, args, kwargs, result, d):
                if result is not None:
                    c["pairs_checked"] += result.pairs_checked
            return hook
        if name.startswith("oracle.brute_"):
            sig = inspect.signature(fn)

            def hook(enter, args, kwargs, result, d):
                if enter:
                    bound = sig.bind(*args, **kwargs).arguments
                    p = bound.get("prime") or bound["orbit_points"][0].prime
                    c["points_enumerated"] += int(p) ** bound["precision"]
            return hook
        if name in _BUILDERS:
            def hook(enter, args, kwargs, result, d):
                depth["build"] += 1 if enter else -1
                if result is None:
                    return
                table = result.table if name == "maps.iterate_table" else result
                c["table_entries_built"] += sum(len(t) for t in table.tables)
                if not depth["build"]:
                    self.build_s += d
            return hook
        return None

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap the package's public callables and rebind every reference."""
        replaced = {}
        modules = {layer: importlib.import_module(f"padicdyn.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                not attr.startswith("_") or attr in _DUNDERS):
                            self._restore.append((obj, attr, fn))
                            setattr(obj, attr, self._wrap(fn, f"{layer}.{name}.{attr}", layer))
        package = importlib.import_module("padicdyn")
        for mod in list(modules.values()) + [package]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ output

    def layer_calls(self, layer: str) -> int:
        return sum(n for n, lay in zip(self.calls, self.layer_of) if lay == layer)

    def dump(self, path) -> None:
        """Write the stored spans and the per-name call counts as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "layers": self.layer_of,
                "calls": self.calls,
                "self_s": self.self_s,
                "counts": self.counts,
                "spans_dropped": self.dropped,
                "spans": [list(s) for s in self.spans],
            }, fh)
