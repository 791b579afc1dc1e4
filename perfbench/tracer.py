"""Timing wrappers around circgeo's public functions, installed from outside.

The tracer replaces every public function of the six layer modules with a
wrapper that records a span: its name, parent span, start and end. A wrapper
is installed in the module that defines the function and in every circgeo
namespace that imported the name, because calls inside a module look the
name up in that module's globals. The oracle's check table holds references
to private functions, so each check is wrapped in the table as well and gets
a span named after its family. uninstall() puts every original back.

Spans stay in memory as columns of machine integers; they are aggregated
after a pass and written out by the caller when its run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PACKAGE = "circgeo"
LAYERS = ("core", "frames", "quadrics", "conics", "oracle", "cli")


@dataclass
class PassProfile:
    """Per-name aggregates of one traced pass."""

    calls: dict[str, int]
    self_s: dict[str, float]
    total_s: dict[str, float]


class Tracer:
    """Spans of one traced pass: install(), run circgeo, uninstall(), then read them."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self._name_ids: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self._suite: tuple[list, list] | None = None
        self.checks: list[str] = []  # span names of the oracle checks, in suite order
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised: list[int] = []  # spans that ended by an exception
        self._stack = [-1]

    def _wrap(self, span: str, layer: str, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
            self.layer_of[span] = layer
        nid = self._name_ids[span]
        clock = time.perf_counter_ns
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        raised = self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.append(index)
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == PACKAGE}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        suite = getattr(modules[f"{PACKAGE}.oracle"], "_SUITE", None)
        if isinstance(suite, list) and all(isinstance(e, tuple) and len(e) == 3 for e in suite):
            original = list(suite)
            self.checks = [f"oracle.{n}" for n, _, _ in original]
            suite[:] = [(n, tol, self._wrap(f"oracle.{n}", "oracle", fn)) for n, tol, fn in original]
            self._suite = (suite, original)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()
        if self._suite is not None:
            suite, original = self._suite
            suite[:] = original
            self._suite = None

    def profile(self) -> PassProfile:
        """Calls, self time and total time per span name for the recorded spans."""
        # Copies, so the columns stay resizable after this returns.
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        duration = (np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)) * 1e-9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        self_s = np.bincount(name, weights=duration - covered, minlength=width)
        total_s = np.bincount(name, weights=duration, minlength=width)
        return PassProfile(
            calls={n: int(calls[i]) for i, n in enumerate(self.names)},
            self_s={n: float(self_s[i]) for i, n in enumerate(self.names)},
            total_s={n: float(total_s[i]) for i, n in enumerate(self.names)},
        )

    def completed_calls(self, span: str) -> int:
        """Calls of span that neither raised nor ran inside a span that raised."""
        if span not in self._name_ids:
            return 0
        parent = np.array(self.parent, dtype=np.int64)
        up = np.where(parent >= 0, parent, np.arange(parent.size))
        failed = np.zeros(parent.size, dtype=bool)
        failed[self.raised] = True
        while True:  # one step up the span tree per iteration
            spread = failed | failed[up]
            if np.array_equal(spread, failed):
                break
            failed = spread
        return int(np.count_nonzero(~failed & (np.array(self.name) == self._name_ids[span])))

    def write_spans(self, path: Path, run_id: str) -> int:
        """Write the recorded spans to an uncompressed .npz file.

        Row i of the arrays name, parent, start_ns and end_ns is span i;
        parent is a row index or -1, name indexes span_names and span_layers,
        and times are nanoseconds from the first span's start. raised lists
        the rows of spans that ended by an exception. Every span of
        the file belongs to the one pass named run_id.
        """
        start = np.array(self.start, dtype=np.int64)
        origin = start[0] if start.size else 0
        np.savez(
            path,
            run_id=np.array(run_id),
            span_names=np.array(self.names),
            span_layers=np.array([self.layer_of[n] for n in self.names]),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start_ns=start - origin,
            end_ns=np.array(self.end, dtype=np.int64) - origin,
            raised=np.array(self.raised, dtype=np.int64),
        )
        return start.size
