"""The process-wide metrics registry: counters, gauges, histograms.

Before this module the repo grew three disjoint counter systems —
:class:`~repro.pipeline.stats.PipelineStats`,
:class:`~repro.pipeline.cache.CacheCounters`, and the serving layer's
per-endpoint table — each with its own locking and its own incompatible
``payload()`` shape.  :class:`MetricsRegistry` is the one substrate they
all publish into now: a named metric plus a label set maps to exactly
one instrument, ``snapshot()`` renders every instrument into one
JSON-friendly dict, and ``prometheus_text()`` renders the same data in
the Prometheus text exposition format (``text/plain; version=0.0.4``)
so the ``/v1/metrics`` endpoint can be scraped by stock tooling.

Instruments follow the Prometheus data model:

- :class:`Counter` — monotonically increasing total (``_total`` names);
- :class:`Gauge` — a settable point-in-time value;
- :class:`Histogram` — fixed cumulative buckets plus sum/count (and
  min/max extras for the JSON views).

All instruments are thread-safe; get-or-create is idempotent, so every
call site can say ``registry.counter(name, **labels).inc()`` without
coordinating creation.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterator

#: Default histogram buckets (seconds): spans sub-millisecond parses to
#: multi-second corpus runs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict[str, str]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _series_name(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def _number(value: float) -> int | float:
    """Render integral floats as ints so JSON payloads stay clean."""
    return int(value) if float(value).is_integer() else value


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return _number(self._value)


class Gauge:
    """A point-in-time value that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return _number(self._value)


class Histogram:
    """Fixed-bucket distribution with sum/count (plus min/max extras)."""

    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelSet, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError(f"histogram {name} needs sorted unique buckets")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = 0.0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    def merge_counts(
        self, counts: list[int], total: float, count: int, minimum: float, maximum: float
    ) -> None:
        """Fold another histogram's raw state into this one (same buckets)."""
        if len(counts) != len(self._counts):
            raise ValueError(
                f"histogram {self.name} merge: bucket layouts differ"
            )
        with self._lock:
            for index, value in enumerate(counts):
                self._counts[index] += value
            self._sum += total
            self._count += count
            if count:
                self._min = min(self._min, minimum)
                self._max = max(self._max, maximum)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def minimum(self) -> float:
        return 0.0 if self._count == 0 else self._min

    @property
    def maximum(self) -> float:
        return self._max

    def cumulative(self) -> list[tuple[str, int]]:
        """``(le, cumulative count)`` rows, ending with ``+Inf``."""
        rows: list[tuple[str, int]] = []
        running = 0
        with self._lock:
            counts = list(self._counts)
        for bound, count in zip(self.buckets, counts):
            running += count
            rows.append((repr(bound), running))
        rows.append(("+Inf", running + counts[-1]))
        return rows

    def payload(self) -> dict:
        return {
            "count": self._count,
            "sum": round(self._sum, 9),
            "min": round(self.minimum, 9),
            "max": round(self._max, 9),
            "buckets": dict(self.cumulative()),
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Thread-safe, get-or-create registry of named instruments.

    One ``(name, labels)`` pair owns exactly one instrument; asking for
    the same pair with a different kind is a programming error and
    raises.  Components receive a registry (or create a private one) so
    a pipeline run, an ingest run, or a server process each snapshot as
    one coherent unit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelSet], Metric] = {}

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs) -> Metric:
        key = (name, _labelset(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    # -- reading ----------------------------------------------------------

    def collect(self) -> list[Metric]:
        """Every instrument, sorted by (name, labels) for stable output."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def value(self, name: str, **labels: str) -> int | float:
        """A counter/gauge value, or 0 when the series does not exist."""
        with self._lock:
            metric = self._metrics.get((name, _labelset(labels)))
        if metric is None:
            return 0
        if isinstance(metric, Histogram):
            raise ValueError(f"{name} is a histogram; read it via series()")
        return metric.value

    def series(self, name: str) -> Iterator[tuple[dict[str, str], Metric]]:
        """Every ``(labels, instrument)`` registered under *name*."""
        for metric in self.collect():
            if metric.name == name:
                yield dict(metric.labels), metric

    def label_values(self, name: str, label: str) -> dict[str, int | float]:
        """Map one label's values to the series' scalar values.

        ``label_values("repro_pipeline_stage_seconds_total", "stage")``
        rebuilds the classic ``{stage: seconds}`` dict from the flat
        label-series representation.
        """
        out: dict[str, int | float] = {}
        for labels, metric in self.series(name):
            if label in labels and not isinstance(metric, Histogram):
                out[labels[label]] = metric.value
        return out

    # -- cross-process relay ----------------------------------------------

    def dump_state(self) -> list[dict]:
        """Every instrument's raw state as picklable primitives.

        A run on worker processes ships each worker's registry back to
        the parent as this list; :meth:`merge_state` folds it in.
        """
        out: list[dict] = []
        for metric in self.collect():
            entry: dict = {
                "kind": metric.kind,
                "name": metric.name,
                "labels": list(metric.labels),
            }
            if isinstance(metric, Histogram):
                with metric._lock:
                    entry.update(
                        buckets=list(metric.buckets),
                        counts=list(metric._counts),
                        sum=metric._sum,
                        count=metric._count,
                        min=metric._min,
                        max=metric._max,
                    )
            else:
                entry["value"] = float(metric.value)
            out.append(entry)
        return out

    def merge_state(self, state: list[dict], include_gauges: bool = False) -> None:
        """Fold a :meth:`dump_state` list into this registry.

        Counters and histograms accumulate (the natural semantics for
        per-worker deltas).  Gauges are skipped by default: they are
        point-in-time values owned by the parent (a worker's
        ``repro_pipeline_jobs`` gauge of 1 must not stomp the parent's
        real job count).  Pass ``include_gauges=True`` when every dumped
        series carries a disambiguating label (the serving cluster tags
        each worker's dump with ``worker="<i>"``), which makes setting
        gauges safe and lossless.
        """
        for entry in state:
            labels = dict(entry["labels"])
            kind = entry["kind"]
            if kind == "counter":
                self.counter(entry["name"], **labels).inc(entry["value"])
            elif kind == "histogram":
                histogram = self.histogram(
                    entry["name"], buckets=tuple(entry["buckets"]), **labels
                )
                histogram.merge_counts(
                    entry["counts"], entry["sum"], entry["count"],
                    entry["min"], entry["max"],
                )
            elif kind == "gauge" and include_gauges:
                self.gauge(entry["name"], **labels).set(entry["value"])

    def snapshot(self) -> dict:
        """The whole registry as one JSON-friendly dict.

        This single shape replaces the three incompatible ``payload()``
        formats the pipeline, cache, and serving layers used to emit.
        """
        counters: dict[str, int | float] = {}
        gauges: dict[str, int | float] = {}
        histograms: dict[str, dict] = {}
        for metric in self.collect():
            key = _series_name(metric.name, metric.labels)
            if isinstance(metric, Counter):
                counters[key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            else:
                histograms[key] = metric.payload()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def prometheus_text(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: list[str] = []
        typed: set[str] = set()
        for metric in self.collect():
            if metric.name not in typed:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                typed.add(metric.name)
            if isinstance(metric, Histogram):
                for le, cumulative in metric.cumulative():
                    labels = metric.labels + (("le", le),)
                    lines.append(
                        f"{_series_name(metric.name + '_bucket', labels)}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{_series_name(metric.name + '_sum', metric.labels)}"
                    f" {_format(metric.sum)}"
                )
                lines.append(
                    f"{_series_name(metric.name + '_count', metric.labels)}"
                    f" {metric.count}"
                )
            else:
                lines.append(
                    f"{_series_name(metric.name, metric.labels)}"
                    f" {_format(metric.value)}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _format(value: float) -> str:
    number = _number(value)
    return str(number) if isinstance(number, int) else repr(number)


#: The process-wide default registry, for callers that want one shared
#: sink without threading a registry through their call graph.
_GLOBAL_REGISTRY = MetricsRegistry()


def metrics_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _GLOBAL_REGISTRY
