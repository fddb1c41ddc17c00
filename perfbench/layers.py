"""Per-layer metrics of the traced pass, computed by name.

BENCHMARK.json's ``per_layer`` list names the metrics and gives their
units; this module knows how to compute a value for each name:

* ``<span>.calls``, ``.constructed``, ``.self_s`` and ``.us_per_call`` of a
  traced span (``engine.fire.us_per_call``).  ``us_per_call`` is inclusive
  time per call, children and their tracing included; ``self_s`` excludes
  the time child spans cover.
* the counters and ratios in ``_COUNTED`` and ``_derived``.
* scaling curves: any of the above with a job's size tag appended
  (``engine.fire.us_per_call.siso_n1600``), taken over that job's spans.
"""

from __future__ import annotations

from tracer import FUNCTIONS, METHODS

_SPANS = {name for *_, name in FUNCTIONS + METHODS}
_SPAN_METRICS = ("calls", "constructed", "self_s", "us_per_call")
_COUNTED = (
    "engine.enumerate.fired",
    "engine.enumerate.states",
    "engine.enumerate.memo_lookups",
    "engine.enumerate.signatures",
    "scenario.trace_bytes",
    "statevector.bytes_moved_computed",
    "qasm.bytes",
)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _value(name, spans, counts, suffix=""):
    """One metric over ``spans`` (span name -> calls, inclusive s, self s)."""
    if name in _COUNTED:
        return counts[name + suffix]
    if name == "engine.enumerate.memo_hit_ratio":
        return _ratio(counts["engine.enumerate.memo_hits" + suffix],
                      counts["engine.enumerate.memo_lookups" + suffix])
    if name == "scenario.emit_trace.us_per_event":
        return _ratio(spans("scenario.emit_trace")[1], counts["scenario.trace_events" + suffix], 1e6)
    span, metric = name.rsplit(".", 1)
    if span not in _SPANS or metric not in _SPAN_METRICS:
        raise KeyError(f"no per-layer metric named {name}")
    calls, inclusive, self_s = spans(span)
    if metric in ("calls", "constructed"):
        return calls
    if metric == "self_s":
        return self_s
    return _ratio(inclusive, calls, 1e6)


def per_layer_metrics(spec, tracer, verify_s: float, overhead_ratio: float, probe=None) -> dict:
    """Every metric in ``spec`` (BENCHMARK.json's ``per_layer``) for the traced pass.

    A curve whose size tag ran as a probe is taken from the ``probe`` tracer.
    """
    fixed = {"bench.verify_s": verify_s, "trace.overhead_ratio": overhead_ratio}
    probe_tags = {tag for _, tag in probe.by_tag} if probe else set()
    out = {}
    for row in spec:
        name = row["name"]
        if name in fixed:
            value = fixed[name]
        else:
            try:
                value = _value(name, tracer.totals.__getitem__, tracer.counts)
            except KeyError:
                base, tag = name.rsplit(".", 1)
                source = probe if tag in probe_tags else tracer
                value = _value(base, lambda span: source.by_tag[(span, tag)], source.counts,
                               f"@{tag}")
        out[name] = {"value": value, "unit": row["unit"]}
    return out
