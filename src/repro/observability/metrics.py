"""The unified metrics registry.

One labeled counter/gauge/histogram API for everything the middleware
counts: per-primitive counters, supervision tallies
(:class:`~repro.util.stats.Tally` is a prefix-scoped view over a registry),
and network statistics (:meth:`~repro.simnet.stats.NetworkStats.export`
syncs into one at snapshot time). ``snapshot()`` flattens the whole
registry into one deterministic dict, and :meth:`MetricsRegistry.absorb`
merges per-container registries under an added label so a runtime can
present a single fleet-wide view.

Instruments are identity objects: ``registry.counter("x")`` always returns
the same :class:`Counter`, so hot paths may cache the handle and skip the
lookup. The hottest paths (per-frame counts) skip even that: they keep plain
ints and register a collector (:meth:`MetricsRegistry.add_collector`) that
writes them into their instruments before every read.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.util.stats import summarize

LabelSet = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, str, LabelSet]  # (instrument kind, name, labels)
Collector = Callable[["MetricsRegistry"], None]


class Counter:
    """Monotonic count of occurrences."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, by: int = 1) -> int:
        self.value += by
        return self.value


class Gauge:
    """Last-written value of a level (queue depth, bytes on the wire)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Observed sample series, summarized on snapshot."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    def summary(self) -> Dict[str, float]:
        return summarize(self.values)


class MetricsRegistry:
    """Factory and store for labeled instruments."""

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, object] = {}
        self._collectors: List[Tuple[FrozenSet[str], Collector]] = []

    def add_collector(self, names: Iterable[str], collect: Collector) -> None:
        """Run ``collect(registry)`` before every read that can see the
        metrics ``names``: a value lookup of one of them, :meth:`items`,
        :meth:`snapshot` or :meth:`absorb` of this registry. A collector
        sets those instruments from counts kept elsewhere, as
        :meth:`~repro.simnet.stats.NetworkStats.export` does, so it must be
        idempotent."""
        self._collectors.append((frozenset(names), collect))

    def _collect(self, name: Optional[str] = None) -> None:
        """Run the collectors of metric ``name`` (all of them when None)."""
        for names, collect in self._collectors:
            if name is None or name in names:
                collect(self)

    # -- instrument accessors -----------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        return self._instrument("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._instrument("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._instrument("histogram", Histogram, name, labels)

    def _instrument(self, kind: str, factory, name: str, labels: Dict[str, str]):
        key = (kind, name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        return metric

    # -- reads that never create --------------------------------------------
    def counter_value(self, name: str, **labels: str) -> int:
        self._collect(name)
        metric = self._metrics.get(("counter", name, tuple(sorted(labels.items()))))
        return metric.value if metric is not None else 0

    def gauge_value(self, name: str, **labels: str) -> float:
        self._collect(name)
        metric = self._metrics.get(("gauge", name, tuple(sorted(labels.items()))))
        return metric.value if metric is not None else 0.0

    def histogram_values(self, name: str, **labels: str) -> List[float]:
        self._collect(name)
        metric = self._metrics.get(("histogram", name, tuple(sorted(labels.items()))))
        return list(metric.values) if metric is not None else []

    def items(self) -> Iterator[Tuple[MetricKey, object]]:
        self._collect()
        return iter(sorted(self._metrics.items()))

    # -- merging ------------------------------------------------------------
    def absorb(self, other: "MetricsRegistry", **labels: str) -> None:
        """Merge ``other`` into this registry, adding ``labels`` to every
        metric (e.g. ``container="fcs"``). Values accumulate."""
        for (kind, name, label_set), metric in other.items():
            merged = dict(label_set)
            merged.update(labels)
            if kind == "counter":
                self.counter(name, **merged).inc(metric.value)
            elif kind == "gauge":
                self.gauge(name, **merged).set(metric.value)
            else:
                target = self.histogram(name, **merged)
                target.values.extend(metric.values)

    # -- export -------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """One flat, deterministically ordered dict.

        Keys are ``name`` or ``name{k=v,...}``; counters and gauges map to
        their value, histograms to a :func:`~repro.util.stats.summarize`
        dict.
        """
        out: Dict[str, object] = {}
        for (kind, name, label_set), metric in self.items():
            if label_set:
                rendered = ",".join(f"{k}={v}" for k, v in label_set)
                key = f"{name}{{{rendered}}}"
            else:
                key = name
            if kind == "histogram":
                out[key] = metric.summary()
            else:
                out[key] = metric.value
        return out

    def clear(self) -> None:
        self._metrics.clear()

    def __repr__(self) -> str:
        self._collect()
        kinds: Dict[str, int] = {}
        for kind, _, _ in self._metrics:
            kinds[kind] = kinds.get(kind, 0) + 1
        return f"<MetricsRegistry {kinds!r}>"


__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram"]
