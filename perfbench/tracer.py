"""Spans around the package's public functions, for the traced run.

``Tracer.install`` wraps each traced function and rebinds the wrapper in
every ``qpnbuf`` module that holds the function (``cli`` holds its own
``run`` and ``emit_trace``, ``engine`` its own ``tensor``), and wraps
``Marking.__init__``/``Marking.key`` and ``StateVector.__init__`` on their
classes.  A span records name, start, end, parent span and job id; spans
stay in memory until the run writes them out.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name) of every traced free function.
FUNCTIONS = (
    ("statevector", "apply", "statevector.apply"),
    ("statevector", "tensor", "statevector.tensor"),
    ("statevector", "run_circuit", "statevector.run_circuit"),
    ("engine", "fire", "engine.fire"),
    ("engine", "unfire", "engine.unfire"),
    ("engine", "enabled_transitions", "engine.enabled_transitions"),
    ("engine", "run", "engine.run"),
    ("engine", "enumerate_final_markings", "engine.enumerate"),
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("scenario", "emit_trace", "scenario.emit_trace"),
    ("scenario", "parse_trace", "scenario.parse_trace"),
    ("flipflop", "build_register", "flipflop.build_register"),
    ("qasm", "export_qasm", "qasm.export"),
    ("qasm", "parse_qasm", "qasm.parse"),
    ("buffers", "build_siso", "buffers.build"),
    ("buffers", "build_simo", "buffers.build"),
    ("buffers", "build_miso", "buffers.build"),
    ("buffers", "build_mimo", "buffers.build"),
    ("buffers", "build_priority", "buffers.build"),
    ("buffers", "build_cnot_example", "buffers.build"),
    ("cli", "main", "cli.main"),
)
# (module, class, method, span name) of every traced method.
METHODS = (
    ("engine", "Marking", "__init__", "engine.marking"),
    ("engine", "Marking", "key", "engine.marking_key"),
    ("statevector", "StateVector", "__init__", "statevector.construct"),
)

# Bytes one dense apply moves, per amplitude: a 16-byte gather read, a
# 16-byte write and one 8-byte permutation index.  Computed, not measured.
APPLY_BYTES_PER_AMPLITUDE = 40


class Tracer:
    def __init__(self):
        self.on = False
        self.job = None  # (job id, tag) of the running job
        self.spans = []  # (id, name, start, end, parent id, job id)
        self._stack = []  # [id, name, start, child time]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, incl, self
        self.by_tag = defaultdict(lambda: [0, 0.0, 0.0])  # (name, tag) -> same
        self.counts = defaultdict(int)  # name -> count, overall and per "name@tag"
        self._enum = None  # per-call enumeration tallies
        self._rebound = []

    # spans ------------------------------------------------------------------

    def _push(self, name):
        self._stack.append([len(self.spans) + len(self._stack), name, perf_counter(), 0.0])

    def _pop(self):
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        job_id, tag = self.job or (None, None)
        self.spans.append((sid, name, start, end, parent[0] if parent else None, job_id))
        for key, table in ((name, self.totals), ((name, tag), self.by_tag)):
            if table is self.by_tag and tag is None:
                continue
            row = table[key]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child

    def count(self, name, value):
        self.counts[name] += value
        if self.job and self.job[1]:
            self.counts[f"{name}@{self.job[1]}"] += value

    # wrapping -----------------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        enumerate_ = name == "engine.enumerate"

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if enumerate_:
                tracer._enum = {"keys": set(), "lookups": 0, "expanded": 0, "fired": 0}
            tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop()
                if enumerate_:
                    tracer._close_enumeration()
            if hook is not None:
                tracer._run_hook(hook, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_hook(self, hook, args, result):
        """Run a counter hook; its time counts as the tracer's, not the caller's."""
        start = perf_counter()
        hook(args, result)
        if self._stack:
            self._stack[-1][3] += perf_counter() - start

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "qpnbuf" or n.startswith("qpnbuf.")]
        for mod_name, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[f"qpnbuf.{mod_name}"], attr)
            wrapper = self._wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebound.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"qpnbuf.{mod_name}"], cls_name)
            fn = cls.__dict__[attr]
            self._rebound.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name))

    def uninstall(self):
        for owner, key, fn in reversed(self._rebound):
            setattr(owner, key, fn)
        self._rebound.clear()

    # counters at layer boundaries ------------------------------------------------

    def _after_statevector_apply(self, args, result):
        self.count("statevector.bytes_moved_computed",
                   APPLY_BYTES_PER_AMPLITUDE << args[0].num_qubits)

    def _after_scenario_emit_trace(self, args, result):
        self.count("scenario.trace_events", len(args[0].events))
        self.count("scenario.trace_bytes", len(result))

    def _after_qasm_export(self, args, result):
        self.count("qasm.bytes", len(result))

    def _after_engine_enumerate(self, args, result):
        self.count("engine.enumerate.signatures", len(result))

    def _after_engine_marking_key(self, args, result):
        if self._enum is not None:
            self._enum["lookups"] += 1
            self._enum["keys"].add(hash(result))

    def _after_engine_fire(self, args, result):
        if self._enum is not None:
            self._enum["fired"] += 1

    def _after_engine_enabled_transitions(self, args, result):
        if self._enum is not None:
            self._enum["expanded"] += 1

    def _close_enumeration(self):
        tally, self._enum = self._enum, None
        self.count("engine.enumerate.states", len(tally["keys"]))
        self.count("engine.enumerate.memo_lookups", tally["lookups"])
        self.count("engine.enumerate.memo_hits", tally["lookups"] - tally["expanded"])
        self.count("engine.enumerate.fired", tally["fired"])

    # output ---------------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
