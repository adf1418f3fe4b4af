"""Span tracer for the traced benchmark pass.

`install` wraps every public function and method of the coilsim layer
modules and rebinds each wrapper wherever the original is looked up: the
defining module, every other coilsim module that imported it by name, and
module-level dispatch dicts such as the CLI's command table.  Nothing in the
package changes; `uninstall` puts the originals back.

Every wrapped call updates per-name counts, total time and self time (total
minus the time of wrapped calls made inside it).  Calls of the names in
SPAN_PATTERNS also record a span (id, parent id, name, start, end); the
hot leaves everywhere else are folded into a count and a total under the
nearest spanned ancestor, so memory stays bounded at millions of calls.
Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import json
from pathlib import Path
from time import perf_counter

LAYERS = ("magnetics", "coilopt", "plant", "control", "experiments", "config", "cli")
ROOT = "bench.unit"

SPAN_PATTERNS = (
    ROOT,
    "cli.*",
    "experiments.*",
    "control.run_*_batch",
    "config.load_config",
    "config.load_preset",
    "config.parse_config",
    "coilopt.solve_optimal_ratio",
    "coilopt.second_derivative_center",
    "coilopt.uniform_region",
    "magnetics.field_map",
    "magnetics.write_field_map_csv",
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.under: dict[tuple[str, str], list] = {}  # (span name, folded name) -> [calls, total_s]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._stack: list[list] = []  # [child_s, span_id, span_name]
        self._spanned: dict[str, bool] = {}
        self._next_id = 0

    def is_spanned(self, name: str) -> bool:
        hit = self._spanned.get(name)
        if hit is None:
            hit = self._spanned[name] = any(fnmatch.fnmatchcase(name, p) for p in SPAN_PATTERNS)
        return hit

    def wrap(self, name: str, fn, name_of=None):
        """fn wrapped to record its calls under `name`, or under
        name_of(args, kwargs) when given."""
        stack, stats, under, spans = self._stack, self.stats, self.under, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nm = name if name_of is None else name_of(args, kwargs)
            parent = stack[-1] if stack else None
            spanned = self.is_spanned(nm)
            if spanned:
                span_id, span_name = self._next_id, nm
                self._next_id += 1
            else:
                span_id, span_name = (parent[1], parent[2]) if parent else (None, None)
            frame = [0.0, span_id, span_name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st = stats.get(nm)
                if st is None:
                    st = stats[nm] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if spanned:
                    spans.append((span_id, parent[1] if parent else None, nm, t0, t1))
                else:
                    u = under.get((span_name, nm))
                    if u is None:
                        u = under[(span_name, nm)] = [0, 0.0]
                    u[0] += 1
                    u[1] += dur

        return traced

    def call(self, name: str, fn, args=()):
        return self.wrap(name, fn)(*args)

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": t0, "end": t1}) + "\n")
            for (span, name), (calls, total) in sorted(self.under.items(), key=str):
                fh.write(json.dumps({"folded": name, "under": span, "calls": calls, "total_s": total}) + "\n")


def _cli_main_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


def _wrap(tracer: Tracer, name: str, fn):
    return tracer.wrap(name, fn, _cli_main_name if name == "cli.main" else None)


def _plain(fn) -> bool:
    return inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)


class Installation:
    def __init__(self) -> None:
        self._undo: list = []

    def set(self, obj, key, value) -> None:
        if isinstance(obj, dict):
            self._undo.append((obj.__setitem__, key, obj[key]))
            obj[key] = value
        else:
            self._undo.append((functools.partial(setattr, obj), key, vars(obj)[key]))
            setattr(obj, key, value)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, old = self._undo.pop()
            setter(key, old)


def install(tracer: Tracer) -> Installation:
    import coilsim

    modules = [getattr(coilsim, layer) for layer in LAYERS]
    inst = Installation()
    wrapped: dict = {}  # original function -> wrapper
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if _plain(obj):
                wrapped[obj] = _wrap(tracer, f"{layer}.{attr}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for mname, m in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    name = f"{layer}.{obj.__name__}.{mname}"
                    if isinstance(m, (classmethod, staticmethod)) and _plain(m.__func__):
                        inst.set(obj, mname, type(m)(_wrap(tracer, name, m.__func__)))
                    elif _plain(m):
                        inst.set(obj, mname, _wrap(tracer, name, m))
    for mod in [coilsim] + modules:
        for attr, obj in list(vars(mod).items()):
            if _plain(obj) and obj in wrapped:
                inst.set(mod, attr, wrapped[obj])
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for k, v in list(obj.items()):
                    if _plain(v) and v in wrapped:
                        inst.set(obj, k, wrapped[v])
    return inst
