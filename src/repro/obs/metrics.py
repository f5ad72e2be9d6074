"""Thread-safe metrics primitives: counters, gauges, histograms.

The paper's results are quantitative — vector sizes track the
edge-decomposition size (Theorems 4–6), the offline width obeys
``floor(N/2)`` (Theorem 8) — so the observability layer's first job is
to turn those bounds into live numbers.  A :class:`MetricsRegistry`
holds named metrics; every metric is safe to update concurrently from
the rendezvous runtime's process threads (each instance guards its
state with its own lock, and the registry guards creation, so the same
name always resolves to the same object no matter which thread asks
first).

The three metric kinds mirror the Prometheus data model so
:mod:`repro.obs.export` can render the registry in the Prometheus text
exposition format without translation:

* :class:`Counter` — monotonically increasing totals (messages
  timestamped, vector comparisons, piggyback bytes);
* :class:`Gauge` — point-in-time values (vector component count,
  decomposition size, theorem bounds);
* :class:`Histogram` — fixed-bucket distributions (rendezvous blocking
  time, per-message piggyback bytes);
* :class:`QuantileSketch` — log-bucketed streaming quantiles (p50/
  p95/p99 within 1% relative error, merged exactly by adding bucket
  counts), which map onto the Prometheus *summary* type.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError

Number = Union[int, float]


class MetricError(ReproError):
    """Raised on metric misuse (name clash, bad buckets, bad value)."""


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value}

    def merge(self, other: "Counter") -> None:
        """Fold another counter's total into this one (exact)."""
        if not isinstance(other, Counter):
            raise MetricError(
                f"cannot merge {type(other).__name__} into counter "
                f"{self.name!r}"
            )
        self.inc(other.value)

    def merge_snapshot(self, data: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict into this counter (exact)."""
        self.inc(data.get("value", 0))  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can move both ways (sizes, bounds, backlog)."""

    kind = "gauge"

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: Number = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "value": self.value}

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in by taking the elementwise maximum.

        Gauges in the catalog are sizes and theorem bounds, so the
        conservative global view after a cross-process merge is the
        largest value any process reported.  ``max`` is also
        commutative and associative, making the fold order-independent.
        """
        if not isinstance(other, Gauge):
            raise MetricError(
                f"cannot merge {type(other).__name__} into gauge "
                f"{self.name!r}"
            )
        self.merge_snapshot({"value": other.value})

    def merge_snapshot(self, data: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict in (elementwise maximum)."""
        value = data.get("value", 0)
        with self._lock:
            if value > self._value:  # type: ignore[operator]
                self._value = value  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


#: Default histogram buckets for second-valued durations (rendezvous
#: blocking time): sub-millisecond up to ten seconds.
DURATION_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
)

#: Default buckets for byte-valued sizes (piggybacked vectors).
BYTE_BUCKETS: Tuple[float, ...] = (
    8.0,
    16.0,
    32.0,
    64.0,
    128.0,
    256.0,
    512.0,
    1024.0,
    4096.0,
)


class Histogram:
    """A fixed-bucket histogram with Prometheus-style cumulative view.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches everything above the last bound.
    An observation lands in the first bucket whose bound is ``>=`` the
    value (i.e. bounds are inclusive upper edges, as in Prometheus'
    ``le`` label).
    """

    kind = "histogram"

    __slots__ = (
        "name",
        "help",
        "_bounds",
        "_counts",
        "_sum",
        "_count",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[Number],
        help: str = "",
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError(
                f"histogram {name!r} needs at least one bucket bound"
            )
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricError(
                f"histogram {name!r} bounds must be strictly increasing: "
                f"{bounds}"
            )
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # the +Inf bucket is implicit
            if not bounds:
                raise MetricError(
                    f"histogram {name!r} needs a finite bucket bound"
                )
        self.name = name
        self.help = help
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum: float = 0.0
        self._count = 0
        self._lock = threading.Lock()

    @property
    def bounds(self) -> Tuple[float, ...]:
        """The finite upper bucket edges (``+Inf`` is implicit)."""
        return self._bounds

    def observe(self, value: Number) -> None:
        """Record one observation."""
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_many(self, value: Number, count: int) -> None:
        """Record ``count`` identical observations in one locked update.

        Batch call sites (``repro.core.fastpath``) use this to mirror
        what ``count`` individual :meth:`observe` calls would have
        recorded without paying the per-observation lock round-trips.
        """
        if count < 0:
            raise MetricError(
                f"histogram {self.name!r} observation count must be "
                f"non-negative, got {count}"
            )
        if count == 0:
            return
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += count
            self._sum += value * count
            self._count += count

    def observe_batch(self, values: Sequence[Number]) -> None:
        """Record many (distinct) observations under one lock.

        Equivalent to calling :meth:`observe` per value; deferred-fold
        call sites (``repro.obs.live.NodeTelemetry``) drain their
        sample queues through this to keep lock round-trips off the
        per-sample cost.
        """
        if not values:
            return
        bounds = self._bounds
        with self._lock:
            counts = self._counts
            total = 0.0
            for value in values:
                counts[bisect_left(bounds, value)] += 1
                total += value
            self._sum += total
            self._count += len(values)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_edge, count)`` pairs ending at ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self._bounds, counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), running + counts[-1]))
        return pairs

    def mean(self) -> float:
        """Average observation (0.0 when empty)."""
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def snapshot(self) -> Dict[str, object]:
        pairs: List[List[object]] = [
            [bound, count] for bound, count in self.bucket_counts()
        ]
        # JSON (RFC 8259) has no infinity; spell the last edge the way
        # the Prometheus exposition does.
        pairs[-1][0] = "+Inf"
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "buckets": pairs,
        }

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (exact; bounds must match)."""
        if not isinstance(other, Histogram):
            raise MetricError(
                f"cannot merge {type(other).__name__} into histogram "
                f"{self.name!r}"
            )
        if other._bounds != self._bounds:
            raise MetricError(
                f"histogram {self.name!r} bucket bounds differ: "
                f"{self._bounds} vs {other._bounds}"
            )
        with other._lock:
            counts = list(other._counts)
            total = other._sum
            n = other._count
        self._merge_raw(counts, total, n)

    def merge_snapshot(self, data: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict in (exact; bounds must match).

        The snapshot carries *cumulative* bucket counts (Prometheus
        ``le`` semantics); they are de-accumulated back into raw
        per-bucket counts before adding.
        """
        pairs = list(data.get("buckets") or [])  # type: ignore[arg-type]
        bounds = tuple(float(b) for b, _ in pairs[:-1])
        if bounds != self._bounds:
            raise MetricError(
                f"histogram {self.name!r} bucket bounds differ: "
                f"{self._bounds} vs {bounds}"
            )
        raw: List[int] = []
        previous = 0
        for _, cumulative in pairs:
            step = int(cumulative) - previous
            if step < 0:
                raise MetricError(
                    f"histogram {self.name!r} snapshot has decreasing "
                    f"cumulative bucket counts"
                )
            raw.append(step)
            previous = int(cumulative)
        self._merge_raw(
            raw,
            float(data.get("sum", 0.0)),  # type: ignore[arg-type]
            int(data.get("count", 0)),  # type: ignore[arg-type]
        )

    def _merge_raw(
        self, counts: Sequence[int], total: float, n: int
    ) -> None:
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += count
            self._sum += total
            self._count += n

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


#: Quantiles a :class:`QuantileSketch` reports in :meth:`quantiles`,
#: its snapshot and the Prometheus summary lines — the latency
#: percentiles every report surfaces.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: Relative accuracy of every :class:`QuantileSketch` estimate.
ALPHA = 0.01

#: Ratio between consecutive bucket edges of a :class:`QuantileSketch`.
GAMMA = (1 + ALPHA) / (1 - ALPHA)

_LOG_GAMMA = math.log(GAMMA)


class QuantileSketch:
    """A mergeable streaming quantile estimator with relative error.

    Log-bucketed in the style of DDSketch (Masson, Rim and Lee, VLDB
    2019): a value ``v > 0`` counts into bucket ``k = ceil(log(v) /
    log(GAMMA))``, which holds the values in ``(GAMMA**(k-1),
    GAMMA**k]``, and zeros have their own count.  Every value in bucket
    ``k`` lies within relative error :data:`ALPHA` of the bucket's
    representative ``2 * GAMMA**k / (GAMMA + 1)``, so any quantile
    estimate is within ``ALPHA`` of the exact order statistic.

    Buckets are sparse, so state grows with ``log(max / min)`` of the
    stream, not with its length: values spanning seven decades need at
    most 807 buckets.  Two sketches merge by adding bucket counts,
    which is exact — a merged sketch reports what one sketch would
    after observing every sample itself.  This is the summary-type
    companion to :class:`Histogram`, whose fixed buckets cannot resolve
    a p99 to within 1%.
    """

    kind = "summary"

    __slots__ = (
        "name", "help", "_buckets", "_zeros", "_sum", "_count", "_min",
        "_max", "_lock",
    )

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._buckets: Dict[int, int] = {}
        self._zeros = 0
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        """Record one observation (finite and non-negative)."""
        value = float(value)
        if not 0.0 <= value < math.inf:
            raise MetricError(
                f"summary {self.name!r} observations must be finite "
                f"and non-negative, got {value}"
            )
        key = math.ceil(math.log(value) / _LOG_GAMMA) if value else 0
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value:
                self._buckets[key] = self._buckets.get(key, 0) + 1
            else:
                self._zeros += 1

    def _estimates(self, targets: Sequence[float]) -> Dict[float, float]:
        """``{q: estimate}`` for ascending ``targets`` (lock held).

        Walks the buckets in key order to rank ``floor(q * (count -
        1))`` and answers with that bucket's representative, clamped to
        the observed ``[min, max]``.
        """
        if not self._count:
            return {q: 0.0 for q in targets}
        keys = sorted(self._buckets)
        estimates: Dict[float, float] = {}
        seen = self._zeros
        index = 0
        for q in targets:
            rank = int(q * (self._count - 1))
            if rank < self._zeros:
                estimates[q] = 0.0
                continue
            while seen <= rank:
                seen += self._buckets[keys[index]]
                index += 1
            estimate = 2.0 * GAMMA ** keys[index - 1] / (GAMMA + 1.0)
            estimates[q] = min(max(estimate, self._min), self._max)
        return estimates

    def quantile(self, q: float) -> float:
        """The estimate of quantile ``q`` in ``[0, 1]`` (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(
                f"summary {self.name!r} quantile must lie in [0, 1], "
                f"got {q}"
            )
        with self._lock:
            return self._estimates((q,))[q]

    def quantiles(self) -> Dict[float, float]:
        """``{q: estimate}`` for each of :data:`DEFAULT_QUANTILES`."""
        with self._lock:
            return self._estimates(DEFAULT_QUANTILES)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def min(self) -> float:
        """Smallest observation (0.0 when empty)."""
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest observation (0.0 when empty)."""
        with self._lock:
            return self._max if self._count else 0.0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            estimates = self._estimates(DEFAULT_QUANTILES)
            return {
                "type": self.kind,
                "count": self._count,
                "sum": self._sum,
                "quantiles": {repr(q): v for q, v in estimates.items()},
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "zeros": self._zeros,
                "buckets": [
                    [key, self._buckets[key]]
                    for key in sorted(self._buckets)
                ],
            }

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in (exact)."""
        if not isinstance(other, QuantileSketch):
            raise MetricError(
                f"cannot merge {type(other).__name__} into summary "
                f"{self.name!r}"
            )
        self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, data: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` dict in (exact).

        Bucket counts, zeros, ``count`` and ``sum`` add; ``min`` and
        ``max`` take the extremes.  A snapshot whose counts are
        negative or do not add up to ``count`` raises
        :class:`MetricError` and leaves this sketch unchanged.
        """
        count = int(data.get("count", 0))  # type: ignore[arg-type]
        zeros = int(data.get("zeros", 0))  # type: ignore[arg-type]
        buckets = [
            (int(key), int(n))
            for key, n in data.get("buckets") or []  # type: ignore[union-attr]
        ]
        if (
            zeros < 0
            or any(n < 0 for _, n in buckets)
            or zeros + sum(n for _, n in buckets) != count
        ):
            raise MetricError(
                f"summary {self.name!r} snapshot counts are negative or "
                f"do not add up to its count ({count})"
            )
        if not count:
            return
        total = float(data.get("sum", 0.0))  # type: ignore[arg-type]
        minimum = float(data.get("min", 0.0))  # type: ignore[arg-type]
        maximum = float(data.get("max", 0.0))  # type: ignore[arg-type]
        with self._lock:
            self._count += count
            self._sum += total
            self._zeros += zeros
            for key, n in buckets:
                self._buckets[key] = self._buckets.get(key, 0) + n
            if minimum < self._min:
                self._min = minimum
            if maximum > self._max:
                self._max = maximum

    def __repr__(self) -> str:
        return f"QuantileSketch({self.name}, n={self.count})"


Metric = Union[Counter, Gauge, Histogram, QuantileSketch]


class MetricsRegistry:
    """A named collection of metrics, safe to share across threads.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    twice for the same name returns the same object, and asking for an
    existing name with a different kind is an error — so independent
    modules can resolve the same metric without coordination.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, kind, factory) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind.kind}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, Counter, lambda: Counter(name, help)
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        buckets: Sequence[Number] = DURATION_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets, help)
        )

    def summary(self, name: str, help: str = "") -> QuantileSketch:
        return self._get_or_create(
            name, QuantileSketch, lambda: QuantileSketch(name, help)
        )

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        with self._lock:
            metrics = list(self._metrics.values())
        return iter(sorted(metrics, key=lambda m: m.name))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-data view of every metric (JSON-serializable)."""
        return {metric.name: metric.snapshot() for metric in self}

    # -- merging -------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every metric of ``other`` into this registry.

        Metrics are created on first sight (same name resolves to the
        same kind and bounds); a name registered here with a different
        kind raises :class:`MetricError`.  Counters, histograms and
        quantile sketches fold exactly, and gauges take the maximum.
        """
        for metric in other:
            if isinstance(metric, Counter):
                self.counter(metric.name, metric.help).merge(metric)
            elif isinstance(metric, Gauge):
                self.gauge(metric.name, metric.help).merge(metric)
            elif isinstance(metric, Histogram):
                self.histogram(
                    metric.name, metric.bounds, metric.help
                ).merge(metric)
            elif isinstance(metric, QuantileSketch):
                self.summary(metric.name, metric.help).merge(metric)

    def merge_snapshot(
        self, snapshot: Dict[str, Dict[str, object]]
    ) -> None:
        """Fold a :meth:`snapshot` dict (e.g. from another process) in.

        This is the cross-process path: node registries serialize with
        ``snapshot()``, travel as JSON, and fold into one global
        registry here — which ``render_prometheus`` and
        ``metrics_to_json`` then render unchanged.
        """
        for name in sorted(snapshot):
            data = snapshot[name]
            kind = data.get("type")
            if kind == Counter.kind:
                self.counter(name).merge_snapshot(data)
            elif kind == Gauge.kind:
                self.gauge(name).merge_snapshot(data)
            elif kind == Histogram.kind:
                raw = data.get("buckets") or []
                pairs = list(raw)  # type: ignore[arg-type]
                bounds = [float(b) for b, _ in pairs[:-1]]
                self.histogram(
                    name, bounds or DURATION_BUCKETS
                ).merge_snapshot(data)
            elif kind == QuantileSketch.kind:
                self.summary(name).merge_snapshot(data)
            else:
                raise MetricError(
                    f"cannot merge metric {name!r}: unknown type "
                    f"{kind!r}"
                )
