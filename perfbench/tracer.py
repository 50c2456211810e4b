"""In-memory call tracer for the billexp package, applied from outside it.

The tracer replaces public functions of billexp in every module namespace
that binds them (``forward`` is bound in ``bmap``, ``singularities``,
``ucurves`` and ``cli``; ``first_collision`` in ``flow``, ``bmap`` and
``singularities``), so calls through any import path are seen.  Imports done
lazily inside a function body (``ucurves.fit_constants`` pulls the ``bmap``
certifiers, ``ucurves._graze_anchors`` pulls ``trace_singularity``) read the
module attribute at call time and therefore get the wrapper too.

Every wrapped function is aggregated as (calls, total time, self time,
raised).  Stage functions additionally record one span each
(name, start, end, parent span).  Nothing is written until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import Counter

# functions that get one span per call; everything else is aggregated only
STAGES = frozenset({
    "tables.load_builtin", "geometry.build_table",
    "ucurves.fit_constants", "bmap.certify_expansion_constant",
    "bmap.certify_hyperbolicity", "ucurves.certify_length_constant",
    "singularities.trace_singularity", "singularities.find_multiple_points",
    "ucurves.choose_depth", "ucurves.sup_scan",
})

# stage timers kept in untraced runs: what verdict_s and the summary need
STAGE_TIMERS = frozenset({
    "tables.load_builtin", "geometry.build_table", "ucurves.fit_constants",
    "ucurves.sup_scan",
})


def billexp_modules() -> list:
    """The billexp package and all of its submodules, imported."""
    import billexp

    for info in pkgutil.iter_modules(billexp.__path__):
        importlib.import_module(f"billexp.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "billexp" or name.startswith("billexp.")]


def public_functions(modules) -> dict:
    """id(function) -> (label, function) for billexp's public functions."""
    found = {}
    for mod in modules:
        for name, val in vars(mod).items():
            if (inspect.isfunction(val) and not name.startswith("_")
                    and val.__name__ == name
                    and val.__module__.startswith("billexp.")):
                label = val.__module__.rsplit(".", 1)[1] + "." + name
                found[id(val)] = (label, val)
    return found


def patch(labels, wrap) -> list:
    """Bind wrap(label, fn) in place of each public function named in labels
    (None: all of them) in every billexp namespace that binds it; returns
    what unpatch needs to restore the originals."""
    modules = billexp_modules()
    wrappers = {}
    for key, (label, fn) in public_functions(modules).items():
        if labels is None or label in labels:
            wrappers[key] = wrap(label, fn)
    undo = []
    for mod in modules:
        for name, val in list(vars(mod).items()):
            if id(val) in wrappers and inspect.isfunction(val):
                undo.append((mod, name, val))
                setattr(mod, name, wrappers[id(val)])
    return undo


def unpatch(undo) -> None:
    for mod, name, val in reversed(undo):
        setattr(mod, name, val)
    undo.clear()


class Marks:
    """Progress marks at every ``every``-th call of one function, and a
    host-speed probe at every ``probe_every``-th mark.

    ``probe()`` returns the seconds a fixed piece of work took, a measure
    of the host's speed at that moment; run.py scales the stretches of work
    between marks by the probe that follows them.  ``marks`` holds (time,
    resume time, probe seconds or None) per mark: the work resumes after
    the probe, so no stretch includes probe time.  The wrapper costs about
    0.2 us per call.  Use as a context manager.
    """

    def __init__(self, label, every, probe, probe_every):
        self.label, self.every = label, every
        self.probe, self.probe_every = probe, probe_every
        self.marks = []
        self._undo = []

    def __enter__(self):
        append, clock = self.marks.append, time.perf_counter
        every, probe = self.every, self.probe
        period = every * self.probe_every
        count = [0]

        def wrap(_label, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                count[0] += 1
                if not count[0] % every:
                    t = clock()
                    if count[0] % period:
                        append((t, t, None))
                    else:
                        speed = probe()
                        append((t, clock(), speed))
                return fn(*args, **kwargs)
            return wrapper

        self._undo = patch({self.label}, wrap)
        return self

    def __exit__(self, *exc):
        unpatch(self._undo)
        return False


def _observe_forward(tracer, result, exc):
    if result is not None and len(result.images) > 1:
        tracer.counters["bmap.forward.branched"] += 1


def _observe_trace(tracer, result, exc):
    if result is not None:
        tracer.counters["singularities.trace_singularity.curves"] += \
            len(result)


def _observe_evolve(tracer, result, exc):
    tree = result if result is not None else getattr(exc, "partial", None)
    if tracer.depth.get("ucurves.choose_depth", [0])[0]:
        tracer.counters["ucurves.choose_depth.trees"] += 1
    if tree is None:
        return
    for gen in tree.generations[1:]:
        tracer.counters["ucurves.components"] += len(gen)
        tracer.counters["ucurves.tails"] += sum(1 for c in gen if c.tail)
    tracer.counters["ucurves.degenerate_merged"] += tree.degenerate_merged


_UNSEEN = (0, 0.0, 0.0, 0)

OBSERVERS = {
    "bmap.forward": _observe_forward,
    "singularities.trace_singularity": _observe_trace,
    "ucurves.evolve_n": _observe_evolve,
}


class Tracer:
    """Wraps billexp functions while active; use as a context manager.

    ``labels`` restricts wrapping to the named functions (None: all public
    functions).  Wrapping is undone on exit, so one process can alternate
    traced and untraced runs.
    """

    def __init__(self, labels=None):
        self.labels = labels
        self.spans = []       # [name, start, end, parent index or None]
        self.agg = {}         # label -> [calls, total_s, self_s, raised]
        self.counters = Counter()
        self.depth = {}       # label -> [open calls]
        self._frames = []     # child time accumulated per open call
        self._open_spans = []
        self._undo = []

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        self._undo = patch(self.labels, self._wrap)
        return self

    def __exit__(self, *exc):
        unpatch(self._undo)
        return False

    def _wrap(self, label, fn):
        agg = self.agg.setdefault(label, [0, 0.0, 0.0, 0])
        depth = self.depth.setdefault(label, [0])
        frames, clock = self._frames, time.perf_counter
        push, pop = frames.append, frames.pop
        spans, open_spans = self.spans, self._open_spans
        observe = OBSERVERS.get(label)
        is_stage = label in STAGES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            push(frame)
            depth[0] += 1
            if is_stage:
                span = [label, 0.0, 0.0,
                        open_spans[-1] if open_spans else None]
                open_spans.append(len(spans))
                spans.append(span)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                agg[3] += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                pop()
                depth[0] -= 1
                agg[0] += 1
                agg[2] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if not depth[0]:
                    agg[1] += dt          # recursion counted once
                    if observe is not None:
                        observe(self, result, exc)
                if is_stage:
                    open_spans.pop()
                    span[1], span[2] = t0, t1

        return wrapper

    # -- reading ----------------------------------------------------------

    def calls(self, label) -> int:
        return self.agg.get(label, _UNSEEN)[0]

    def total_s(self, label) -> float:
        return self.agg.get(label, _UNSEEN)[1]

    def self_s(self, label) -> float:
        return self.agg.get(label, _UNSEEN)[2]

    def raised(self, label) -> int:
        return self.agg.get(label, _UNSEEN)[3]

    def first_span(self, label):
        """(start, end) of the first span named label, or None."""
        for name, t0, t1, _parent in self.spans:
            if name == label:
                return t0, t1
        return None

    def dump(self, path) -> None:
        doc = {
            "spans": [{"name": n, "start": t0, "end": t1, "parent": p}
                      for n, t0, t1, p in self.spans],
            "aggregates": {k: {"calls": c, "total_s": tot, "self_s": slf,
                               "raised": r}
                           for k, (c, tot, slf, r) in sorted(self.agg.items())
                           if c},
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
