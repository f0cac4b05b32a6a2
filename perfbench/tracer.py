"""Span tracer that wraps the package's public functions from outside.

Every public function defined in a layer module is wrapped, and so is every
other binding of the same function object: ``from .pauli import power``
makes ``twirl.power`` a binding separate from ``pauli.power``, and a wrapper
on one would not see calls through the other.  ``install`` checks that no
binding was missed.

A span is (operation id, function, span id, parent span id, start, end).
Self time is a span's duration minus the durations of its direct child
spans.  A group total is the wall time spent inside any function of the
group, counted once however the calls nest.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("primefield", "pauli", "code", "infogroup", "twirl", "classical",
          "oracle", "cli")

# Totals over several functions; each function's own total also exists.
GROUPS = {
    "oracle.projector": ("oracle.code_projector", "oracle.codewords",
                         "oracle.encoding_isometry"),
    "oracle.choi": ("oracle.choi_decoupling", "oracle.choi_check"),
}

SPAN_CAP = 50_000


def _cells(args, kwargs):
    a = args[0] if args else kwargs["a"]
    shape = getattr(a, "shape", None)
    if shape is None:
        shape = np.shape(a)
    return "cells", int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0


def _amplitudes(args, kwargs):
    p = args[0] if args else kwargs["p"]
    return "amplitudes", (p.d ** p.m) ** 2


def _subsets(args, kwargs):
    code = args[0] if args else kwargs["code"]
    return "subsets", 2 ** code.n


# Work counters computed from a call's arguments: counter name and amount.
COUNTERS = {
    "primefield.mod_rref": _cells,
    "pauli.dense_matrix": _amplitudes,
    "infogroup.classify": _subsets,
}


def _is_traceable(obj, module_name: str) -> bool:
    if inspect.isclass(obj):
        return False
    if inspect.isfunction(obj) or hasattr(obj, "cache_clear"):
        return getattr(obj, "__module__", None) == module_name
    return False


class Tracer:
    def __init__(self, package: str = "stabshare"):
        self.package = package
        self.targets: dict[int, tuple[str, object]] = {}  # id(fn) -> (name, fn)
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and _is_traceable(obj, mod.__name__):
                    self.targets[id(obj)] = (f"{layer}.{attr}", obj)
        self.names = sorted(name for name, _ in self.targets.values())
        self._patched: list[tuple[object, str, object]] = []
        self.op = None
        self.paused = False
        self.bindings = 0
        keys = list(self.names) + list(GROUPS)
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.total_s = dict.fromkeys(keys, 0.0)
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._depth = dict.fromkeys(keys, 0)
        self._since = dict.fromkeys(keys, 0.0)
        self._stack: list[list] = []
        self.reset()

    # -- bookkeeping -------------------------------------------------------

    def reset(self) -> None:
        """Zero every aggregate in place; installed wrappers keep working."""
        for table in (self.calls, self.self_s, self.total_s, self._depth,
                      self._since):
            for key in table:
                table[key] = 0
        self.counters.clear()
        self.spans.clear()
        self._stack.clear()
        self.dropped = 0
        self._next_id = 0

    def _groups_of(self, name: str) -> tuple[str, ...]:
        return (name,) + tuple(g for g, members in GROUPS.items() if name in members)

    def _wrap(self, name: str, fn):
        groups = self._groups_of(name)
        counter = COUNTERS.get(name)
        depth, since, total = self._depth, self._since, self.total_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if counter is not None:
                key, amount = counter(args, kwargs)
                self.counters[key] = self.counters.get(key, 0) + amount
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][1] if self._stack else -1
            start = clock()
            for g in groups:
                if depth[g] == 0:
                    since[g] = start
                depth[g] += 1
            frame = [start, sid, 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][2] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                for g in groups:
                    depth[g] -= 1
                    if depth[g] == 0:
                        total[g] += end - since[g]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.op, name, sid, parent, start, end))
                else:
                    self.dropped += 1

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- installation ------------------------------------------------------

    def _package_modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == self.package
                                      or key.startswith(self.package + "."))]

    def _original(self, obj) -> bool:
        entry = self.targets.get(id(obj))
        return entry is not None and entry[1] is obj

    def install(self) -> None:
        """Replace every binding of every target function.

        Bindings are module attributes and values of module-level dicts
        (such as a command dispatch table).  Any other dict still holding
        an original afterwards is a missed binding and an error.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {fid: self._wrap(name, fn)
                    for fid, (name, fn) in self.targets.items()}
        for mod in self._package_modules():
            namespace = vars(mod)
            tables = [namespace] + [v for k, v in namespace.items()
                                    if isinstance(v, dict) and not k.startswith("__")]
            for table in tables:
                for key, obj in list(table.items()):
                    if self._original(obj):
                        table[key] = wrappers[id(obj)]
                        self._patched.append((table, key, obj))
        ours = {id(w.__dict__) for w in wrappers.values()}
        missed = sorted(name for name, fn in self.targets.values()
                        if any(isinstance(ref, dict) and id(ref) not in ours
                               for ref in gc.get_referrers(fn)))
        if missed:
            self.uninstall()
            raise RuntimeError(f"bindings left unwrapped: {missed}")
        self.bindings = len(self._patched)

    def uninstall(self) -> None:
        for table, key, obj in reversed(self._patched):
            table[key] = obj
        self._patched = []
