"""``SyncComputation`` builds per-process projections on first use and
stores them as tuples; validation still reports the first bad message."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.clocks.online import OnlineEdgeClock
from repro.exceptions import InvalidComputationError
from repro.graphs.decomposition import decompose
from repro.graphs.generators import client_server_topology, path_topology
from repro.sim.computation import SyncComputation, SyncMessage
from repro.sim.workload import random_computation


class TestValidation:
    def test_several_faults_report_the_first(self):
        topology = path_topology(3)
        messages = [
            SyncMessage(0, "P1", "P2", "m1"),
            SyncMessage(1, "P2", "P2", "m2"),
            SyncMessage(7, "P9", "P2", "m1"),
        ]
        with pytest.raises(InvalidComputationError, match="m2 sends to"):
            SyncComputation(topology, messages)

    def test_empty_computation(self):
        computation = SyncComputation(path_topology(2), [])
        assert len(computation) == 0
        assert computation.active_processes() == []


class TestProjections:
    def _computation(self):
        return random_computation(
            client_server_topology(2, 5), 60, random.Random(4)
        )

    def test_equal_before_and_after_first_call(self):
        computation = self._computation()
        expected = {
            p: tuple(m for m in computation.messages if m.involves(p))
            for p in computation.processes
        }
        first = {p: computation.process_messages(p) for p in expected}
        again = {p: computation.process_messages(p) for p in expected}
        assert first == again == expected
        for p in expected:
            assert type(first[p]) is tuple
            assert again[p] is first[p]

    def test_active_processes_first(self):
        computation = self._computation()
        active = computation.active_processes()
        assert active == [
            p for p in computation.processes
            if any(m.involves(p) for m in computation.messages)
        ]
        assert all(computation.process_messages(p) for p in active)

    def test_unknown_process_raises_before_and_after(self):
        computation = self._computation()
        with pytest.raises(InvalidComputationError, match="not in the system"):
            computation.process_messages("nobody")
        computation.process_messages(computation.processes[0])
        with pytest.raises(InvalidComputationError, match="not in the system"):
            computation.process_messages("nobody")

    def test_stamping_never_builds_them(self, monkeypatch):
        computation = self._computation()

        def refuse(self):
            raise AssertionError("projections built")

        monkeypatch.setattr(SyncComputation, "_projections", refuse)
        clock = OnlineEdgeClock(decompose(computation.topology))
        assignment = clock.timestamp_computation(computation)
        assert len(assignment) == len(computation)

    def test_racing_threads_see_equal_projections(self):
        computation = self._computation()
        processes = computation.processes
        expected = [
            tuple(m for m in computation.messages if m.involves(p))
            for p in processes
        ]
        results = []
        barrier = threading.Barrier(8)

        def read():
            barrier.wait(timeout=10)
            results.append(
                [computation.process_messages(p) for p in processes]
            )

        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8
