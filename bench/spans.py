"""Per-layer tracing of mapflock from outside the package.

A target is ``"<module>.<function>"`` for a module of ``mapflock``. Binding
a target replaces the function at every name a caller can look it up by:
each attribute of each loaded ``mapflock`` module that holds the function
object, such as ``mapflock.cli.run`` and ``mapflock.sim.assign_msds``.
Nothing in ``src/`` changes, and leaving the ``with`` block restores
every name. A target the package no longer defines is reported in
``missing`` and is otherwise skipped.
"""

import functools
import sys
import time
import tracemalloc


def bind(targets, make_wrapper):
    """Rebind each target at every name it is bound to; returns (restore, missing)."""
    modules = [mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "mapflock" or name.startswith("mapflock."))]
    restore, missing = [], []
    for key in targets:
        module, _, name = key.partition(".")
        original = getattr(sys.modules.get(f"mapflock.{module}"), name, None)
        if not callable(original):
            missing.append(key)
            continue
        wrapper = make_wrapper(key, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    restore.append((mod, attr, original))
    return restore, missing


def unbind(restore):
    for mod, attr, original in reversed(restore):
        setattr(mod, attr, original)


class SpanTracer:
    """Counts calls and records inclusive and self time of each target.

    Self time is a call's duration less the durations of the traced calls
    made inside it. ``capture`` maps a target to a function of its return
    value; what that function returns for the last call is kept in
    ``captured``. Capturing runs outside the call's span and counts as no
    one's self time.
    """

    def __init__(self, targets, capture=None):
        self.targets = list(targets)
        self.durations_ns = {key: [] for key in self.targets}
        self.self_ns = dict.fromkeys(self.targets, 0)
        self.capture = capture or {}
        self.captured = {}
        self.missing = []
        self._stack = []           # child time accumulated per open call
        self._restore = []

    def __enter__(self):
        self._restore, self.missing = bind(self.targets, self._wrap)
        return self

    def __exit__(self, *exc):
        unbind(self._restore)
        self._restore = []

    def _wrap(self, key, fn):
        durations = self.durations_ns[key]
        stack = self._stack
        clock = time.perf_counter_ns
        keep = self.capture.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                durations.append(duration)
                self.self_ns[key] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
            if keep is not None:
                start = clock()
                self.captured[key] = keep(out)
                if stack:
                    stack[-1] += clock() - start
            return out
        return wrapper


class MemoryPeaks:
    """tracemalloc peaks: the whole block's, and each target call's above its entry.

    A target call resets the tracemalloc peak so that its own peak can be
    read; every open call and the block's overall peak take in the peak
    reached so far before each reset, so no peak is lost.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.peak_bytes = dict.fromkeys(self.targets, 0)
        self.overall_bytes = 0
        self.missing = []
        self._stack = []           # [bytes at entry, peak bytes seen] per open call
        self._restore = []

    def __enter__(self):
        tracemalloc.start()
        self._restore, self.missing = bind(self.targets, self._wrap)
        return self

    def __exit__(self, *exc):
        self._fold()
        unbind(self._restore)
        self._restore = []
        tracemalloc.stop()

    def _fold(self):
        peak = tracemalloc.get_traced_memory()[1]
        self.overall_bytes = max(self.overall_bytes, peak)
        for frame in self._stack:
            frame[1] = max(frame[1], peak)

    def _wrap(self, key, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._fold()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            frame = [base, base]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold()
                stack.pop()
                self.peak_bytes[key] = max(self.peak_bytes[key], frame[1] - frame[0])
        return wrapper
