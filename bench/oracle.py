"""Correctness oracle for the benchmark's outputs.

Stamp workloads: Theorem 4 (``m1 ↦ m2 ⟺ v(m1) < v(m2)``) is checked
exactly on three windows of consecutive messages picked from the seed.
A causal chain between two messages of a window only passes through
messages between them in the execution order, so the ground truth of
the window's sub-computation (``order.message_order.message_poset``)
is the restriction of the whole order, and ``order.checker``'s
pairwise check is exact on it.

Runtime workload: every message must commit, and the committed stamps
must equal ``stamp_batch`` run on the committed computation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

WINDOW_MESSAGES = 500
WINDOW_COUNT = 3


@dataclass
class Verdict:
    """What the oracle found in one output file."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: LEB128 clock bytes of all messages, computed from the output.
    clock_bytes: Optional[int] = None


class _VectorOrder:
    """The order Theorem 4 claims: ``v(m1) < v(m2)``."""

    @staticmethod
    def precedes(ts1, ts2) -> bool:
        return ts1 < ts2


def pick_windows(count: int, seed: int) -> List[Tuple[int, int]]:
    """Seeded ``[start, end)`` ranges of consecutive message indexes."""
    size = min(WINDOW_MESSAGES, count)
    rng = random.Random(f"oracle-windows-{seed}")
    starts = sorted(
        rng.randrange(count - size + 1) for _ in range(WINDOW_COUNT)
    )
    return [(start, start + size) for start in starts]


def read_stamps(computation, path: str) -> List[Optional[object]]:
    """Stamps of an assignment JSON in message order; ``None`` if absent.

    An entry that is not a list of non-negative integers of the common
    width counts as absent.
    """
    from repro.core.vector import VectorTimestamp

    with open(path, "r", encoding="utf-8") as handle:
        recorded = json.load(handle).get("timestamps", {})
    width = None
    stamps: List[Optional[object]] = []
    for message in computation.messages:
        values = recorded.get(message.name)
        valid = isinstance(values, list) and all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0
            for v in values
        )
        if valid and width is None:
            width = len(values)
        stamps.append(
            VectorTimestamp(values) if valid and len(values) == width
            else None
        )
    return stamps


def theorem4_violations(computation, stamps: Sequence,
                        windows: Sequence[Tuple[int, int]]) -> Set[int]:
    """Indexes of stamped messages in a violating pair of some window."""
    from repro.clocks.base import TimestampAssignment
    from repro.order.checker import check_encoding
    from repro.order.message_order import message_poset
    from repro.sim.computation import SyncComputation

    violating: Set[int] = set()
    for start, end in windows:
        present = [
            m for m in computation.messages[start:end]
            if stamps[m.index] is not None
        ]
        window = SyncComputation.from_pairs(
            computation.topology, [(m.sender, m.receiver) for m in present]
        )
        assignment = TimestampAssignment(
            window,
            {w: stamps[m.index] for w, m in zip(window.messages, present)},
        )
        report = check_encoding(
            _VectorOrder(), assignment, poset=message_poset(window)
        )
        for violation in (
            report.consistency_violations + report.completeness_violations
        ):
            violating.add(present[violation.first.index].index)
            violating.add(present[violation.second.index].index)
    return violating


def handshake_piggyback_bytes(computation, stamps: Sequence) -> int:
    """Bytes Figure 5 piggybacks in the ``full`` format, both legs.

    The offer carries the sender's vector before the message and the
    acknowledgement the receiver's; each process's vector before a
    message is its previous message's stamp, or all zeros.
    """
    from repro.obs.instrument import piggyback_size_bytes

    width = len(next(s for s in stamps if s is not None))
    last = {}
    total = 0
    for message in computation.messages:
        for process in (message.sender, message.receiver):
            vector = last.get(process)
            total += width if vector is None else piggyback_size_bytes(vector)
        last[message.sender] = last[message.receiver] = stamps[message.index]
    return total


def verify_stamp_output(trace_path: str, output_path: str, seed: int,
                        bytes_rule: Optional[str] = "handshake") -> Verdict:
    """Check one ``repro stamp --output`` file against its trace.

    ``bytes_rule`` picks how clock bytes are counted: ``handshake`` for
    the online clock's ``full`` piggyback, ``stored`` for the offline
    vectors, ``None`` when the stamping run counts its own bytes.
    """
    from repro.obs.instrument import piggyback_size_bytes
    from repro.sim.trace_io import computation_from_dict

    with open(trace_path, "r", encoding="utf-8") as handle:
        computation = computation_from_dict(json.load(handle))
    count = len(computation)
    verdict = Verdict(attempted=count)
    stamps = read_stamps(computation, output_path)
    missing = {i for i, stamp in enumerate(stamps) if stamp is None}
    if missing:
        verdict.problems.append(f"{len(missing)} message(s) without a stamp")
    if len(missing) == count:
        verdict.failed = count
        return verdict
    violating = theorem4_violations(
        computation, stamps, pick_windows(count, seed)
    )
    if violating:
        verdict.problems.append(
            f"{len(violating)} message(s) violate Theorem 4 in a window"
        )
    verdict.failed = len(missing | violating)
    if bytes_rule == "handshake":
        verdict.clock_bytes = handshake_piggyback_bytes(computation, stamps)
    elif bytes_rule == "stored":
        verdict.clock_bytes = sum(
            piggyback_size_bytes(s) for s in stamps if s is not None
        )
    return verdict


def verify_runtime_output(expected_messages: int,
                          output_path: str) -> Verdict:
    """Check a ``rendezvous-1x1`` commit log.

    Every message must commit, and the committed stamps must be
    byte-identical to ``stamp_batch`` on ``transport.as_computation()``.
    """
    from repro.core.fastpath import stamp_batch
    from repro.graphs.decomposition import decompose
    from repro.graphs.generators import client_server_topology
    from repro.sim.computation import SyncComputation

    with open(output_path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    log = record["log"]
    verdict = Verdict(attempted=expected_messages)
    for error in record["errors"]:
        verdict.problems.append(f"runtime error: {error}")
    uncommitted = expected_messages - len(log)
    if uncommitted:
        verdict.problems.append(f"{uncommitted} message(s) not committed")
    topology = client_server_topology(1, 1, full_mesh=False)
    computation = SyncComputation.from_pairs(
        topology, [(sender, receiver) for sender, receiver, _ in log]
    )
    expected = stamp_batch(computation, decompose(topology))
    mismatched = sum(
        1
        for message, (_, _, stamp) in zip(computation.messages, log)
        if list(expected[message]) != stamp
    )
    if mismatched:
        verdict.problems.append(
            f"{mismatched} committed stamp(s) differ from stamp_batch"
        )
    verdict.failed = max(uncommitted, 0) + mismatched
    if verdict.problems and not verdict.failed:
        verdict.failed = 1
    if log:
        verdict.clock_bytes = handshake_piggyback_bytes(
            computation, [expected[m] for m in computation.messages]
        )
    return verdict
