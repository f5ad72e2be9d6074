"""The live telemetry plane: node push state, aggregation, detection.

Everything here runs with fake clocks and synthetic frames — no
sockets, no subprocesses.  The end-to-end plane (real coordinator,
real node processes) is exercised by ``tests/sim/test_telemetry.py``.
"""

from __future__ import annotations

import io
import json
import urllib.request

from repro.obs import flightrec
from repro.obs.live import (
    DEADLOCK_SUSPECT,
    NODE_BLOCK_QUANTILES,
    NODE_BLOCK_SECONDS,
    NODE_COMMITS,
    NODE_EVENT_QUEUE,
    NODE_RECEIVES,
    NODE_SENDS,
    STALL,
    STRAGGLER,
    HealthEvent,
    LiveAggregator,
    MetricsEndpoint,
    NodeTelemetry,
    TelemetryConfig,
    render_top,
)


class FakeClock:
    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


# ----------------------------------------------------------------------
# Node side
# ----------------------------------------------------------------------
class TestNodeTelemetry:
    def test_counts_fold_exactly_into_frame(self):
        clock = FakeClock()
        tele = NodeTelemetry("P1", clock=clock)
        for _ in range(3):
            tele.on_commit("send", "P2", 0.001)
        for _ in range(2):
            tele.on_commit("receive", "P3", 0.002)
        tele.on_internal("work")
        frame = tele.frame()
        metrics = frame["metrics"]
        assert frame["commits"] == 5
        assert metrics[NODE_COMMITS]["value"] == 5
        assert metrics[NODE_SENDS]["value"] == 3
        assert metrics[NODE_RECEIVES]["value"] == 2
        assert metrics[NODE_BLOCK_SECONDS]["count"] == 5
        assert len(frame["events"]) == 6

    def test_frames_are_cumulative(self):
        tele = NodeTelemetry("P1", clock=FakeClock())
        tele.on_commit("send", "P2", 0.001)
        first = tele.frame()
        tele.on_commit("send", "P2", 0.001)
        second = tele.frame()
        assert first["metrics"][NODE_COMMITS]["value"] == 1
        assert second["metrics"][NODE_COMMITS]["value"] == 2
        assert second["seq"] == first["seq"] + 1
        # Events are deltas: each commit rides along exactly once.
        assert len(first["events"]) == 1
        assert len(second["events"]) == 1

    def test_due_on_commit_count(self):
        clock = FakeClock()
        tele = NodeTelemetry(
            "P1", interval_seconds=0.0, every_commits=4, clock=clock
        )
        for _ in range(3):
            tele.on_commit("send", "P2", 0.0)
        assert not tele.due()
        tele.on_commit("send", "P2", 0.0)
        assert tele.due()
        tele.frame()
        assert not tele.due()

    def test_due_on_interval(self):
        clock = FakeClock()
        tele = NodeTelemetry(
            "P1", interval_seconds=0.5, every_commits=0, clock=clock
        )
        assert not tele.due()
        clock.advance(0.6)
        assert tele.due()
        tele.frame()
        assert not tele.due()

    def test_default_cadence_is_time_driven_only(self):
        tele = NodeTelemetry("P1", clock=FakeClock())
        for _ in range(10_000):
            tele.on_commit("send", "P2", 0.0)
        assert not tele.due()  # no commit trigger at the default

    def test_event_queue_caps_and_counts_drops(self):
        tele = NodeTelemetry("P1", clock=FakeClock())
        for index in range(NODE_EVENT_QUEUE + 25):
            tele.on_commit("send", "P2", float(index))
        frame = tele.frame()
        assert len(frame["events"]) == NODE_EVENT_QUEUE
        assert frame["events_dropped"] == 25
        # Dropped *events* never drop metric samples.
        assert frame["metrics"][NODE_COMMITS]["value"] == (
            NODE_EVENT_QUEUE + 25
        )
        assert frame["metrics"][NODE_BLOCK_SECONDS]["count"] == (
            NODE_EVENT_QUEUE + 25
        )

    def test_sketch_decimates_after_exact_head(self):
        # The node no longer thins the sketch past an exact head of 64
        # samples: the head is the whole stream.  One fold of a long
        # stream reaches the sketch in full, so its quantiles are the
        # log sketch's own (relative error ALPHA), not a 1-in-8 sample.
        tele = NodeTelemetry("P1", clock=FakeClock())
        total = 500
        for index in range(total):
            tele.on_commit("send", "P2", 0.001 * (1 + index % 10))
        metrics = tele.frame()["metrics"]
        sketch = metrics[NODE_BLOCK_QUANTILES]
        assert metrics[NODE_BLOCK_SECONDS]["count"] == total
        assert sketch["count"] == total
        assert sum(count for _, count in sketch["buckets"]) == total
        assert abs(sketch["quantiles"]["0.5"] - 0.005) <= 0.01 * 0.005
        assert abs(sketch["quantiles"]["0.99"] - 0.010) <= 0.01 * 0.010

    def test_decimation_counter_survives_folds(self):
        # With no sampling phase to carry between folds, the sketch and
        # the histogram count the same samples, however many frames the
        # commits are spread over.
        tele = NodeTelemetry("P1", clock=FakeClock())
        total = 150
        for index in range(total):
            tele.on_commit("send", "P2", 0.001 * (index % 7))
            if index % 11 == 0:
                tele.frame()
        metrics = tele.frame()["metrics"]
        assert metrics[NODE_BLOCK_SECONDS]["count"] == total
        assert metrics[NODE_BLOCK_QUANTILES]["count"] == total


# ----------------------------------------------------------------------
# Aggregator: ingestion and merging
# ----------------------------------------------------------------------
def _frame(node, commits, seq=1, final=False, p95=None, metrics=None):
    if metrics is None:
        registry_metrics = {
            NODE_COMMITS: {"type": "counter", "value": commits},
        }
        if p95 is not None:
            registry_metrics["node_block_quantile_seconds"] = {
                "type": "summary",
                "count": commits,
                "sum": p95 * commits,
                "min": p95,
                "max": p95,
                "quantiles": {"0.5": p95, "0.95": p95, "0.99": p95},
            }
        metrics = registry_metrics
    return {
        "node": node,
        "seq": seq,
        "commits": commits,
        "final": final,
        "metrics": metrics,
        "events": [],
        "events_dropped": 0,
    }


class TestAggregatorIngestion:
    def test_merged_counters_equal_per_node_sums(self):
        clock = FakeClock()
        live = LiveAggregator(["A", "B"], clock=clock)
        tele_a = NodeTelemetry("A", clock=FakeClock())
        tele_b = NodeTelemetry("B", clock=FakeClock())
        for _ in range(7):
            tele_a.on_commit("send", "B", 0.001)
        for _ in range(5):
            tele_b.on_commit("receive", "A", 0.002)
        # Periodic frame then a final one: cumulative snapshots mean
        # only the latest counts.
        live.on_telemetry("A", tele_a.frame(), clock.advance(0.1))
        tele_a.on_commit("send", "B", 0.001)
        live.on_telemetry("A", tele_a.frame(final=True), clock.advance(0.1))
        live.on_telemetry("B", tele_b.frame(final=True), clock.advance(0.1))
        snapshot = live.merged_registry().snapshot()
        assert snapshot[NODE_COMMITS]["value"] == 8 + 5
        assert snapshot[NODE_BLOCK_SECONDS]["count"] == 8 + 5

    def test_heartbeats_and_frame_counts(self):
        clock = FakeClock()
        live = LiveAggregator(["A"], clock=clock)
        live.on_frame("A", clock.now)
        live.on_telemetry("A", _frame("A", 1), clock.now)
        assert live.frames_total == 1
        rows = live.node_rows(clock.now)
        assert rows[0]["frames"] == 1
        assert rows[0]["age"] == 0.0

    def test_live_out_lines_are_strict_json(self):
        # RFC 8259 has no Infinity token; strict parsers such as jq
        # reject a frame whose histogram edge is a bare float inf.
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        sink = io.StringIO()
        clock = FakeClock()
        live = LiveAggregator(
            ["A"], TelemetryConfig(live_out=sink), clock=clock
        )
        tele = NodeTelemetry("A", clock=FakeClock())
        tele.on_commit("send", "B", 0.001)
        live.on_telemetry("A", tele.frame(final=True), clock.now)
        line = sink.getvalue().splitlines()[0]
        frame = json.loads(line, parse_constant=reject)
        buckets = frame["metrics"][NODE_BLOCK_SECONDS]["buckets"]
        assert buckets[-1] == ["+Inf", 1]

    def test_live_out_stream_and_summary(self):
        sink = io.StringIO()
        clock = FakeClock()
        live = LiveAggregator(
            ["A"], TelemetryConfig(live_out=sink), clock=clock
        )
        live.on_telemetry("A", _frame("A", 3, final=True), clock.now)
        live.close()
        lines = [
            json.loads(line)
            for line in sink.getvalue().splitlines()
            if line
        ]
        assert [line["type"] for line in lines] == ["telemetry", "summary"]
        assert lines[0]["node"] == "A"
        assert lines[1]["commits"] == 3
        assert lines[1]["nodes_reporting"] == 1


# ----------------------------------------------------------------------
# Aggregator: detectors
# ----------------------------------------------------------------------
class TestStallDetection:
    def test_silent_node_raises_stall_once(self):
        clock = FakeClock()
        config = TelemetryConfig(heartbeat_timeout=1.0)
        live = LiveAggregator(["A", "B"], config, clock=clock)
        live.on_frame("A", clock.now)
        live.on_frame("B", clock.now)
        clock.advance(1.5)
        live.on_frame("B", clock.now)
        events = live.check_health(clock.now)
        assert [e.kind for e in events] == [STALL]
        assert events[0].node == "A"
        # Already reported: silence alone must not re-raise.
        assert live.check_health(clock.advance(1.0)) == []

    def test_blocked_nodes_are_not_stalled(self):
        clock = FakeClock()
        config = TelemetryConfig(heartbeat_timeout=1.0)
        live = LiveAggregator(["A"], config, clock=clock)
        live.on_frame("A", clock.now)
        clock.advance(5.0)
        assert live.check_health(clock.now, blocked=frozenset(["A"])) == []

    def test_heartbeat_rearms_after_recovery(self):
        clock = FakeClock()
        config = TelemetryConfig(heartbeat_timeout=1.0)
        live = LiveAggregator(["A"], config, clock=clock)
        live.on_frame("A", clock.now)
        clock.advance(2.0)
        assert len(live.check_health(clock.now)) == 1
        live.on_frame("A", clock.now)  # node came back
        clock.advance(2.0)
        assert len(live.check_health(clock.now)) == 1  # fires again

    def test_never_connected_node_is_not_stalled(self):
        clock = FakeClock()
        live = LiveAggregator(
            ["ghost"], TelemetryConfig(heartbeat_timeout=0.1), clock=clock
        )
        clock.advance(10.0)
        assert live.check_health(clock.now) == []


class TestStragglerDetection:
    def _feed(self, live, clock, node, rate, seconds=4.0, p95=0.001):
        commits = 0
        t = 0.0
        while t < seconds:
            t += 1.0
            commits = int(rate * t)
            live.on_telemetry(
                node, _frame(node, commits, p95=p95), clock.now + t
            )

    def test_commit_rate_outlier(self):
        clock = FakeClock()
        config = TelemetryConfig(straggler_min_nodes=3)
        live = LiveAggregator(["A", "B", "C", "slow"], config, clock=clock)
        for node in ("A", "B", "C"):
            self._feed(live, clock, node, rate=100.0)
        self._feed(live, clock, "slow", rate=10.0)
        events = live.check_health(clock.advance(5.0))
        assert [e.kind for e in events] == [STRAGGLER]
        assert events[0].node == "slow"
        assert events[0].detail["reason"] == "commit_rate"
        # The episode is reported once, not every tick.
        assert live.check_health(clock.advance(1.0)) == []

    def test_finished_nodes_keep_feeding_the_fleet_median(self):
        # Three fast nodes finish, then the detector must still flag
        # the one unfinished slow node — their achieved rate remains
        # evidence of fleet speed.
        clock = FakeClock()
        config = TelemetryConfig(straggler_min_nodes=3)
        live = LiveAggregator(["A", "B", "C", "slow"], config, clock=clock)
        for node in ("A", "B", "C"):
            self._feed(live, clock, node, rate=100.0)
            live.on_telemetry(
                node, _frame(node, 400, final=True), clock.now + 4.0
            )
        self._feed(live, clock, "slow", rate=10.0)
        events = live.check_health(clock.advance(5.0))
        assert [(e.kind, e.node) for e in events] == [(STRAGGLER, "slow")]

    def test_block_p95_outlier(self):
        clock = FakeClock()
        config = TelemetryConfig(straggler_min_nodes=3)
        live = LiveAggregator(["A", "B", "C", "slow"], config, clock=clock)
        for node in ("A", "B", "C"):
            self._feed(live, clock, node, rate=100.0, p95=0.001)
        self._feed(live, clock, "slow", rate=100.0, p95=0.5)
        events = live.check_health(clock.advance(5.0))
        assert [e.kind for e in events] == [STRAGGLER]
        assert events[0].node == "slow"
        assert events[0].detail["reason"] == "block_p95"

    def test_too_few_nodes_disables_rate_detection(self):
        clock = FakeClock()
        config = TelemetryConfig(straggler_min_nodes=3)
        live = LiveAggregator(["A", "slow"], config, clock=clock)
        self._feed(live, clock, "A", rate=100.0)
        self._feed(live, clock, "slow", rate=1.0)
        assert live.check_health(clock.advance(5.0)) == []


class TestDeadlockSuspicion:
    def test_mutual_waits_raise_suspect_once(self):
        clock = FakeClock()
        live = LiveAggregator(["P1", "P2"], clock=clock)
        waits = {
            "P1": ("send", "P2", clock.now),
            "P2": ("send", "P1", clock.now),
        }
        live.sync_open_waits(waits, clock.now)
        events = live.check_health(clock.advance(1.0))
        assert [e.kind for e in events] == [DEADLOCK_SUSPECT]
        assert set(events[0].detail["cycle"]) == {"P1", "P2"}
        # Same cycle next tick: already reported.
        live.sync_open_waits(waits, clock.now)
        assert live.check_health(clock.advance(1.0)) == []

    def test_resolved_wait_clears_the_suspicion(self):
        clock = FakeClock()
        live = LiveAggregator(["P1", "P2"], clock=clock)
        waits = {
            "P1": ("send", "P2", clock.now),
            "P2": ("send", "P1", clock.now),
        }
        live.sync_open_waits(waits, clock.now)
        assert len(live.check_health(clock.advance(1.0))) == 1
        # P2's wait resolves; the mirror records a matched block_end.
        live.sync_open_waits(
            {"P1": ("send", "P2", clock.now)}, clock.now
        )
        assert live.check_health(clock.advance(1.0)) == []
        # The same shape re-forming is a *new* episode.
        live.sync_open_waits(waits, clock.now)
        events = live.check_health(clock.advance(1.0))
        assert [e.kind for e in events] == [DEADLOCK_SUSPECT]

    def test_wait_timeout_closes_the_mirrored_wait(self):
        clock = FakeClock()
        live = LiveAggregator(["P1", "P2"], clock=clock)
        live.sync_open_waits(
            {
                "P1": ("send", "P2", clock.now),
                "P2": ("send", "P1", clock.now),
            },
            clock.now,
        )
        live.on_wait_timeout("P1", "send", "P2", 1.5)
        live.sync_open_waits(
            {"P2": ("send", "P1", clock.now)}, clock.now
        )
        assert live.check_health(clock.advance(1.0)) == []
        ends = [
            e
            for e in live.ring.events()
            if e.kind == flightrec.BLOCK_END and e.process == "P1"
        ]
        assert ends and ends[-1].detail["status"] == "timeout"


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TestRenderTop:
    def test_renders_states_and_totals(self):
        clock = FakeClock()
        live = LiveAggregator(
            ["A", "slow"],
            TelemetryConfig(straggler_min_nodes=2, heartbeat_timeout=9.0),
            clock=clock,
        )
        live.on_telemetry("A", _frame("A", 40, final=True), clock.now)
        live._nodes["slow"].straggler = True
        text = render_top(live, clock.now)
        assert "commits 40" in text
        assert "done" in text
        assert "STRAGGLER" in text
        assert "health:" in text

    def test_unreported_node_shows_waiting(self):
        live = LiveAggregator(["A"], clock=FakeClock())
        assert "waiting" in render_top(live)


class TestMetricsEndpoint:
    def test_serves_merged_prometheus_text(self):
        clock = FakeClock()
        live = LiveAggregator(["A"], clock=clock)
        live.on_telemetry("A", _frame("A", 6, final=True), clock.now)
        endpoint = MetricsEndpoint(live, port=0).start()
        try:
            with urllib.request.urlopen(endpoint.url, timeout=5) as resp:
                assert resp.status == 200
                assert "0.0.4" in resp.headers["Content-Type"]
                body = resp.read().decode("utf-8")
            assert f"{NODE_COMMITS} 6" in body
        finally:
            endpoint.close()

    def test_other_paths_404(self):
        live = LiveAggregator(["A"], clock=FakeClock())
        endpoint = MetricsEndpoint(live, port=0).start()
        try:
            url = endpoint.url.replace("/metrics", "/other")
            try:
                urllib.request.urlopen(url, timeout=5)
                raise AssertionError("expected HTTP 404")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
        finally:
            endpoint.close()


class TestHealthEvent:
    def test_to_dict_is_plain_data(self):
        event = HealthEvent(STALL, "A", 12.5, {"silent_seconds": 3.0})
        data = event.to_dict()
        assert json.dumps(data)  # JSON-serializable
        assert data["kind"] == STALL
        assert data["detail"]["silent_seconds"] == 3.0
