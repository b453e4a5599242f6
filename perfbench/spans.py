"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: every public function of the
``mlap`` layers is wrapped, in every ``mlap`` module namespace that refers
to it, while a traced op runs, and restored afterwards.  The suites are
also wrapped one by one through the suite table, so each suite gets a span.

A span is ``(name, start, end, parent, op, count)``; ``count`` is the work
a span carries where it has a natural unit (bytes loaded, transitions
sampled).  Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("netio", "net", "operators", "energy", "green", "learn", "paths", "suites")


def _load_bytes(path, *args, **kwargs):
    return os.path.getsize(path) if isinstance(path, str) and os.path.exists(path) else 0


def _transitions(net, seed, m, count, *args, **kwargs):
    return int(m) * int(count)


COUNTS = {"netio.load_network": _load_bytes, "paths.sample_paths": _transitions}


class Recorder:
    """In-memory spans of the traced ops, and the patches that record them."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.patches = []
        self.missing = set()  # layers or tables that could not be wrapped
        self.names = set()  # every span name ever wrapped
        # spans reported with inclusive time: each suite, and the checksum,
        # whose work sits in the document it serializes
        self.inclusive = {"netio.network_checksum"}

    def wrap(self, name, fn):
        self.names.add(name)
        counter = COUNTS.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            count = counter(*args, **kwargs) if counter else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, count)

        return traced

    def install(self):
        """Wrap every layer's public functions wherever mlap refers to them."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"mlap.{layer}")
            if mod is None:
                self.missing.add(f"mlap.{layer}")
                continue
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mlap" or mod_name.startswith("mlap."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        self.patches.append((mod, attr, value))
                        setattr(mod, attr, wrapped[value])
        table = getattr(sys.modules.get("mlap.suites"), "_SUITES", None)
        if isinstance(table, dict):
            for suite, fn in list(table.items()):
                self.patches.append((table, suite, fn))
                table[suite] = self.wrap(f"suites.{suite}", fn)
                self.inclusive.add(f"suites.{suite}")
        else:
            self.missing.add("mlap.suites._SUITES")

    def uninstall(self):
        for target, key, value in reversed(self.patches):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self.patches = []

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, count in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "count": count}) + "\n")

    def per_op(self):
        """Per op: self time and inclusive time by span name, and counts by name.

        A span's self time is its duration minus that of its child spans.
        """
        out = defaultdict(lambda: {"self": defaultdict(float), "incl": defaultdict(float),
                                   "count": defaultdict(int)})
        child_time = defaultdict(float)
        for name, t0, t1, parent, op, count in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for idx, (name, t0, t1, parent, op, count) in enumerate(self.spans):
            rec = out[op]
            rec["self"][name] += t1 - t0 - child_time[idx]
            rec["incl"][name] += t1 - t0
            rec["count"][name] += count
        return out
