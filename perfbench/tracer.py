"""Span tracer for triqdd's layers, installed from outside the package.

Every public function of the layer modules is replaced, as a module
attribute, by a wrapper. Calls made through module globals are caught that
way, intra-module calls included; names bound by `from x import y` are not.
A wrapper records a span only at a layer boundary, when its caller's module
is not the callee's own, so a layer's self time covers its private helpers
too; calls from inside the callee's module are only counted. Spans (name,
start, end, parent) stay in memory in a flat array until the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

LAYERS = ("cli", "runner", "ddseq", "spinsys", "qmat", "circuits")

_FIELDS = 4  # name id, start ns, end ns, parent span index (-1 for a root)


def _traceable(module, attr: str, value) -> bool:
    return (not attr.startswith("_") and callable(value) and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.recording = False
        self.passes: list[list[int]] = []  # per job, per name: calls from the callee's own module
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self, modules) -> None:
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                if _traceable(module, attr, value):
                    setattr(module, attr, self.wrap(module.__name__, f"{layer}.{attr}", value))
                    self._patched.append((module, attr, value))

    def start_job(self) -> None:
        self.passes.append([0] * len(self.names))
        self.recording = True

    def stop_job(self) -> None:
        self.recording = False

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def wrap(self, module_name: str, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock, caller = self.spans, self._stack, time.perf_counter_ns, sys._getframe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if caller(1).f_globals.get("__name__") == module_name:
                self.passes[-1][name_id] += 1
                return fn(*args, **kwargs)
            index = len(spans) // _FIELDS
            spans.extend((name_id, clock(), 0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index * _FIELDS + 2] = clock()

        return traced

    def __len__(self) -> int:
        return len(self.spans) // _FIELDS

    def job_profiles(self) -> list[dict[str, list[int]]]:
        """Per job: {function name: [calls, self ns]}.

        Calls count spans and calls from the function's own module alike.
        Self time is a span's duration minus the time its child spans cover.
        Each job is one root span, started between start_job and stop_job.
        """
        s, n = self.spans, len(self)
        child_ns = [0] * n
        for i in range(n):
            parent = s[i * _FIELDS + 3]
            if parent >= 0:
                child_ns[parent] += s[i * _FIELDS + 2] - s[i * _FIELDS + 1]
        jobs: list[dict[str, list[int]]] = []
        for i in range(n):
            name_id, start, end, parent = s[i * _FIELDS:(i + 1) * _FIELDS]
            if parent < 0:
                jobs.append({})
            entry = jobs[-1].setdefault(self.names[name_id], [0, 0])
            entry[0] += 1
            entry[1] += end - start - child_ns[i]
        for job, passes in zip(jobs, self.passes):
            for name_id, count in enumerate(passes):
                if count:
                    job.setdefault(self.names[name_id], [0, 0])[0] += count
        return jobs

    def write(self, path) -> None:
        """All spans as CSV: name, start and end in ns, parent span index."""
        s = self.spans
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for i in range(len(self)):
                name_id, start, end, parent = s[i * _FIELDS:(i + 1) * _FIELDS]
                fh.write(f"{self.names[name_id]},{start},{end},{parent}\n")


def calibrate(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds a wrapper adds per recorded span and per passed-through call.

    Times a no-op called plainly, through a recording wrapper from another
    module, and through it from its own module; medians over `repeats`.
    """
    home = {"__name__": "calibration_home"}
    away = {"__name__": "calibration_away"}
    loop = "def loop(f, n):\n    for _ in range(n):\n        f()\n"
    exec("def noop():\n    return None\n" + loop, home)
    exec(loop, away)
    tracer = Tracer()
    wrapped = tracer.wrap("calibration_home", "calibration.noop", home["noop"])
    tracer.start_job()

    def per_call(runner, fn):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            runner(fn, calls)
            samples.append((time.perf_counter() - t0) / calls)
            del tracer.spans[:]
        return statistics.median(samples)

    plain = per_call(away["loop"], home["noop"])
    span = per_call(away["loop"], wrapped) - plain
    passed = per_call(home["loop"], wrapped) - plain
    return max(span, 0.0), max(passed, 0.0)
