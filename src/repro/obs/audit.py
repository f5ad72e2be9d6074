"""Sampling live audit of Theorem 4 and the size bounds.

The paper's central claim (Theorem 4) is that the online encoding
*characterizes* the synchronous order: ``m1 ↦ m2 ⟺ v(m1) < v(m2)``.
Until now that claim was verified only by offline tests; this module
checks it *while timestamps are being issued*.  At a configurable
sampling rate the auditor rebuilds the ground-truth ``↦`` with the
bitset poset kernel and cross-checks freshly issued timestamps against
it, in both directions, and asserts the size bounds the paper proves:

* Theorem 5 (online): the vector has one component per edge group and
  the decomposition size is at most ``N - 2`` (for ``N >= 3``);
* Theorem 8 (offline): the width (the chain partition's size, which
  the sum rule may shrink the vectors below) is at most
  ``floor(N_active / 2)``.

Violations are collected on the auditor, counted by the
``audit_violations_total`` / ``audit_pairs_checked_total`` metrics when
:mod:`repro.obs.instrument` is enabled, and attached to the flight
record when a :mod:`repro.obs.flightrec` recorder is installed — so a
bad pair lands in the same post-mortem artifact as the runtime events
that produced it.

Zero overhead when disabled, same ``None``-test discipline as
``instrument.metrics``: call sites load :data:`auditor` through the
module object and test against ``None``.  The audit never mutates
anything it checks, so timestamping output is byte-identical with the
audit on or off (pinned in ``tests/obs/test_audit.py``).
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs import flightrec as _flightrec
from repro.obs import instrument as _instrument


class AuditViolation:
    """One cross-check that contradicted the ground truth or a bound."""

    __slots__ = ("kind", "first", "second", "expected", "actual", "note")

    def __init__(
        self,
        kind: str,
        first: Any,
        second: Any = None,
        expected: Any = None,
        actual: Any = None,
        note: str = "",
    ):
        #: "order_mismatch" | "theorem5_bound" | "theorem8_bound"
        #: | "vector_size"
        self.kind = kind
        self.first = first
        self.second = second
        self.expected = expected
        self.actual = actual
        self.note = note

    def describe(self) -> str:
        if self.kind == "order_mismatch":
            return (
                f"order mismatch: {self.first!r} vs {self.second!r}: "
                f"ground truth says {self.expected!r}, vectors say "
                f"{self.actual!r} {self.note}"
            )
        return (
            f"{self.kind}: expected <= {self.expected!r}, got "
            f"{self.actual!r} {self.note}"
        ).rstrip()

    def __repr__(self) -> str:
        return f"AuditViolation({self.describe()})"


class Auditor:
    """Samples issued timestamps and cross-checks them against ``↦``.

    ``sample_rate`` is the probability a freshly issued timestamp gets
    audited; each audited timestamp is compared against up to
    ``max_pairs`` uniformly chosen partners.  ``seed`` makes a run
    reproducible; ``history_limit`` bounds the runtime log the
    incremental audit keeps (the suffix is self-contained: a chain
    between two retained messages only passes through messages between
    them in commit order, which are also retained).
    """

    def __init__(
        self,
        sample_rate: float = 0.05,
        max_pairs: int = 32,
        seed: int = 0,
        history_limit: int = 4096,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if max_pairs < 1:
            raise ValueError(
                f"max_pairs must be positive, got {max_pairs}"
            )
        if history_limit < 2:
            raise ValueError(
                f"history_limit must be at least 2, got {history_limit}"
            )
        self.sample_rate = sample_rate
        self.max_pairs = max_pairs
        self.history_limit = history_limit
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: Commit-ordered ``(sender, receiver, timestamp)`` suffix seen
        #: by the incremental runtime audit.
        self._runtime_log: List[Tuple[Any, Any, Any]] = []
        self.pairs_checked = 0
        self.bounds_checked = 0
        self.violations: List[AuditViolation] = []

    # ------------------------------------------------------------------
    # Shared accounting
    # ------------------------------------------------------------------
    def _count_pairs_locked(self, count: int) -> None:
        self.pairs_checked += count
        m = _instrument.metrics
        if m is not None:
            m.audit_pairs_checked.inc(count)

    def _record_violation_locked(
        self, violation: AuditViolation
    ) -> None:
        self.violations.append(violation)
        m = _instrument.metrics
        if m is not None:
            m.audit_violations.inc()
        fr = _flightrec.recorder
        if fr is not None:
            fr.record(
                _flightrec.AUDIT_VIOLATION,
                "audit",
                violation_kind=violation.kind,
                description=violation.describe(),
            )

    def _check_pair_locked(
        self,
        label1: Any,
        label2: Any,
        truth_less_12: bool,
        truth_less_21: bool,
        ts1,
        ts2,
    ) -> None:
        """Both directions of Theorem 4 for one pair."""
        self._count_pairs_locked(1)
        vec_less_12 = ts1 < ts2
        vec_less_21 = ts2 < ts1
        if truth_less_12 != vec_less_12 or truth_less_21 != vec_less_21:
            self._record_violation_locked(
                AuditViolation(
                    "order_mismatch",
                    first=label1,
                    second=label2,
                    expected=(truth_less_12, truth_less_21),
                    actual=(vec_less_12, vec_less_21),
                    note=f"v1={ts1!r} v2={ts2!r}",
                )
            )

    # ------------------------------------------------------------------
    # Incremental audit: the threaded rendezvous runtime
    # ------------------------------------------------------------------
    def on_runtime_message(
        self, sender: Any, receiver: Any, timestamp
    ) -> None:
        """Observe one committed rendezvous (called in commit order)."""
        with self._lock:
            self._runtime_log.append((sender, receiver, timestamp))
            if len(self._runtime_log) > self.history_limit:
                drop = len(self._runtime_log) - self.history_limit
                del self._runtime_log[:drop]
            if len(self._runtime_log) < 2:
                return
            if self._rng.random() >= self.sample_rate:
                return
            self._audit_runtime_tail_locked()

    def _audit_runtime_tail_locked(self) -> None:
        from repro.core.poset import Poset

        log = self._runtime_log
        n = len(log)
        # Ground truth over the retained suffix: m_i ▷ m_j when they
        # share a participant and i < j; the poset closes that to ↦.
        covers: List[Tuple[int, int]] = []
        last_seen: Dict[Any, int] = {}
        for index, (sender, receiver, _) in enumerate(log):
            for participant in (sender, receiver):
                previous = last_seen.get(participant)
                if previous is not None:
                    covers.append((previous, index))
                last_seen[participant] = index
        poset = Poset(range(n), covers)
        newest = n - 1
        candidates = list(range(newest))
        partners = (
            candidates
            if len(candidates) <= self.max_pairs
            else self._rng.sample(candidates, self.max_pairs)
        )
        ts_new = log[newest][2]
        for index in partners:
            self._check_pair_locked(
                f"runtime[{index}]",
                f"runtime[{newest}]",
                poset.less(index, newest),
                poset.less(newest, index),
                log[index][2],
                ts_new,
            )

    # ------------------------------------------------------------------
    # Batch audit: OnlineEdgeClock.timestamp_computation
    # ------------------------------------------------------------------
    def audit_batch(
        self,
        computation,
        timestamps: Mapping[Any, Any],
        decomposition=None,
    ) -> None:
        """Sampled Theorem 4 check of a batch assignment.

        ``timestamps`` maps each message of ``computation`` to its
        vector.  With a ``decomposition`` supplied the Theorem 5 size
        bound and the vector dimensionality are asserted too.
        """
        from repro.order.message_order import message_poset

        with self._lock:
            messages = computation.messages
            if decomposition is not None:
                self._check_theorem5_locked(
                    decomposition, messages, timestamps
                )
            if len(messages) < 2:
                return
            poset = None
            for position, message in enumerate(messages):
                if self._rng.random() >= self.sample_rate:
                    continue
                if poset is None:
                    poset = message_poset(computation)
                candidates = [
                    i for i in range(len(messages)) if i != position
                ]
                partners = (
                    candidates
                    if len(candidates) <= self.max_pairs
                    else self._rng.sample(candidates, self.max_pairs)
                )
                for index in partners:
                    other = messages[index]
                    self._check_pair_locked(
                        message.name,
                        other.name,
                        poset.less(message, other),
                        poset.less(other, message),
                        timestamps[message],
                        timestamps[other],
                    )

    def _check_theorem5_locked(
        self, decomposition, messages, timestamps
    ) -> None:
        self.bounds_checked += 1
        size = decomposition.size
        n = decomposition.graph.vertex_count()
        bound = max(1, n - 2)
        if size > bound:
            self._record_violation_locked(
                AuditViolation(
                    "theorem5_bound",
                    first="decomposition",
                    expected=bound,
                    actual=size,
                    note=f"(N={n})",
                )
            )
        if messages:
            width = len(timestamps[messages[0]])
            if width != size:
                self._record_violation_locked(
                    AuditViolation(
                        "vector_size",
                        first=messages[0].name,
                        expected=size,
                        actual=width,
                        note="(vector components != edge groups)",
                    )
                )

    # ------------------------------------------------------------------
    # Offline audit: OfflineRealizerClock.timestamp_poset
    # ------------------------------------------------------------------
    def audit_offline(
        self,
        computation,
        poset,
        timestamps: Mapping[Any, Any],
        width: int,
    ) -> None:
        """Theorem 8 bound plus sampled pair checks for Figure 9.

        The caller already built the ground-truth ``poset``, so the
        cross-check reuses it instead of rebuilding.
        """
        with self._lock:
            active = computation.active_processes()
            if len(active) >= 2:
                self.bounds_checked += 1
                bound = len(active) // 2
                if width > bound:
                    self._record_violation_locked(
                        AuditViolation(
                            "theorem8_bound",
                            first="realizer",
                            expected=bound,
                            actual=width,
                            note=f"(N_active={len(active)})",
                        )
                    )
            elements = list(poset.elements)
            if len(elements) < 2:
                return
            for position, message in enumerate(elements):
                if self._rng.random() >= self.sample_rate:
                    continue
                candidates = [
                    i for i in range(len(elements)) if i != position
                ]
                partners = (
                    candidates
                    if len(candidates) <= self.max_pairs
                    else self._rng.sample(candidates, self.max_pairs)
                )
                for index in partners:
                    other = elements[index]
                    self._check_pair_locked(
                        getattr(message, "name", message),
                        getattr(other, "name", other),
                        poset.less(message, other),
                        poset.less(other, message),
                        timestamps[message],
                        timestamps[other],
                    )


# ----------------------------------------------------------------------
# Module-level hook (same discipline as ``instrument.metrics``)
# ----------------------------------------------------------------------
#: The active auditor, or ``None`` when the live audit is off.  Read
#: through the module object at call time; never ``from``-import.
auditor: Optional[Auditor] = None

_state_lock = threading.Lock()


def is_auditing() -> bool:
    """True when a live auditor is installed."""
    return auditor is not None


def install(aud: Optional[Auditor] = None, **kwargs: Any) -> Auditor:
    """Install ``aud`` (or ``Auditor(**kwargs)``) as the live auditor."""
    global auditor
    with _state_lock:
        if aud is None:
            aud = Auditor(**kwargs)
        auditor = aud
        return aud


def uninstall() -> None:
    """Remove the live auditor; hooks revert to no-ops."""
    global auditor
    with _state_lock:
        auditor = None


@contextmanager
def audit_session(
    aud: Optional[Auditor] = None, **kwargs: Any
) -> Iterator[Auditor]:
    """Scoped install/restore — tests and the CLI wrap runs in this."""
    global auditor
    previous = auditor
    active = install(aud, **kwargs)
    try:
        yield active
    finally:
        with _state_lock:
            auditor = previous
