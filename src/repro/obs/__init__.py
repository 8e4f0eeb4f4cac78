"""``repro.obs`` — zero-overhead telemetry for the whole stack.

One subsystem, five pieces:

* :mod:`~repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  keyed by ``(name, labels)``, plus recorded span events, in a
  :class:`MetricsRegistry` that merges exactly across trial-fabric workers;
* :mod:`~repro.obs.runtime` — the process-global :data:`OBS` switch and the
  enabled-guard idiom (``if OBS.enabled: ...``) that makes disabled
  telemetry cost one attribute load;
* :mod:`~repro.obs.spans` — ``with span("netsim.phase", label=...)``
  context managers and explicit :func:`begin_span`/:func:`end_span` for
  the slot engine;
* :mod:`~repro.obs.kernels` — :func:`instrument_kernels`, on-demand timing
  wrappers over every ``@hot_kernel`` in ``KERNEL_REGISTRY`` (the identity
  -decorator fast path is untouched until you ask);
* :mod:`~repro.obs.export` — JSONL, Prometheus text, and Chrome
  trace-event JSON (Perfetto-loadable) exporters.

``python -m repro.obs report`` runs an instrumented experiment and prints
per-kernel wall-time and counter tables (see :mod:`~repro.obs.report`).

Two invariants, both pinned by tests and benchmarks: disabled telemetry
costs nothing measurable (repro-lint RL011 enforces the guard idiom inside
hot-kernel bodies), and telemetry never perturbs results (no RNG, no input
mutation — runs are bit-identical on vs. off at any worker count).
"""

from __future__ import annotations

from .export import (
    chrome_trace,
    prometheus_text,
    read_jsonl,
    registry_to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .kernels import (
    KernelInstrumentation,
    instrument_kernels,
    kernel_timers_active,
    uninstrument_kernels,
)
from .profiling import top_allocations
from .metrics import (
    DEFAULT_TIME_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanEvent,
)
from .runtime import OBS, disable, enable, get_registry, telemetry, telemetry_enabled
from .spans import ActiveSpan, begin_span, end_span, span

__all__ = [
    "ActiveSpan",
    "Counter",
    "DEFAULT_TIME_BUCKETS_NS",
    "Gauge",
    "Histogram",
    "KernelInstrumentation",
    "MetricsRegistry",
    "OBS",
    "SpanEvent",
    "begin_span",
    "chrome_trace",
    "disable",
    "enable",
    "end_span",
    "get_registry",
    "instrument_kernels",
    "kernel_timers_active",
    "prometheus_text",
    "read_jsonl",
    "registry_to_jsonl",
    "span",
    "telemetry",
    "telemetry_enabled",
    "top_allocations",
    "uninstrument_kernels",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
