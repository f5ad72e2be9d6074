"""Tests for the command-line interface."""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
from repro.graphs.generators import complete_topology
from repro.sim.trace_io import (
    assignment_to_dict,
    computation_to_dict,
)
from repro.sim.workload import random_computation


#: The one line ``stamp`` and ``run-distributed`` exit with for a
#: ``--wire-format`` spec other than ``full`` or ``delta``.
BOUNDED_SPEC_ERROR = (
    "--wire-format: unknown wire format 'bounded:8' "
    "(expected full or delta)"
)


@pytest.fixture
def trace_file(tmp_path):
    computation = random_computation(
        complete_topology(4), 10, random.Random(1)
    )
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(computation_to_dict(computation)))
    return path, computation


class TestDecompose:
    def test_builtin_family(self, capsys):
        assert main(["decompose", "--family", "complete:5"]) == 0
        out = capsys.readouterr().out
        assert "3 edge group(s)" in out

    def test_client_server_family(self, capsys):
        assert main(["decompose", "--family", "client-server:2x6"]) == 0
        assert "2 edge group(s)" in capsys.readouterr().out

    def test_tree_family(self, capsys):
        assert main(["decompose", "--family", "tree:3x4"]) == 0
        assert "3 edge group(s)" in capsys.readouterr().out

    def test_topology_file(self, tmp_path, capsys):
        topology = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(topology))
        assert main(["decompose", "--topology-file", str(path)]) == 0
        assert "1 edge group(s)" in capsys.readouterr().out

    def test_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "out.dot"
        assert (
            main(["decompose", "--family", "star:4", "--dot", str(dot)])
            == 0
        )
        assert dot.read_text().startswith("graph")

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["decompose", "--family", "torus:3"])

    def test_bad_spec(self):
        with pytest.raises(SystemExit):
            main(["decompose", "--family", "complete:x"])

    def test_missing_source(self):
        with pytest.raises(SystemExit):
            main(["decompose"])


class TestStamp:
    @pytest.mark.parametrize(
        "clock", ["online", "offline", "fm", "lamport"]
    )
    def test_stamp_table(self, trace_file, capsys, clock):
        path, computation = trace_file
        assert main(["stamp", str(path), "--clock", clock]) == 0
        out = capsys.readouterr().out
        assert "m1" in out
        assert f"clock={clock}" in out

    def test_stamp_to_file(self, trace_file, tmp_path, capsys):
        path, computation = trace_file
        output = tmp_path / "stamps.json"
        assert main(["stamp", str(path), "--output", str(output)]) == 0
        data = json.loads(output.read_text())
        assert len(data["timestamps"]) == len(computation)

    def test_scalar_clock_output_is_refused_and_file_kept(
        self, trace_file, tmp_path
    ):
        path, _ = trace_file
        output = tmp_path / "stamps.json"
        output.write_bytes(b"previous contents\n")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "stamp", str(path), "--clock", "lamport",
                    "--output", str(output),
                ]
            )
        message = str(excinfo.value.code)
        assert "--clock lamport" in message
        assert "\n" not in message
        assert output.read_bytes() == b"previous contents\n"

    def test_bounded_wire_format_is_refused_and_file_kept(
        self, trace_file, tmp_path
    ):
        path, _ = trace_file
        output = tmp_path / "stamps.json"
        output.write_bytes(b"previous contents\n")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "stamp", str(path), "--wire-format", "bounded:8",
                    "--output", str(output),
                ]
            )
        assert excinfo.value.code == BOUNDED_SPEC_ERROR
        assert output.read_bytes() == b"previous contents\n"


class TestCheck:
    def test_valid_assignment_passes(self, trace_file, tmp_path, capsys):
        path, computation = trace_file
        stamps = tmp_path / "stamps.json"
        main(["stamp", str(path), "--output", str(stamps)])
        assert main(["check", str(path), str(stamps)]) == 0
        assert "characterizes=True" in capsys.readouterr().out

    def test_corrupted_assignment_fails(self, trace_file, tmp_path, capsys):
        path, computation = trace_file
        stamps = tmp_path / "stamps.json"
        main(["stamp", str(path), "--output", str(stamps)])
        data = json.loads(stamps.read_text())
        first = next(iter(data["timestamps"]))
        data["timestamps"][first] = [999] * len(
            data["timestamps"][first]
        )
        stamps.write_text(json.dumps(data))
        assert main(["check", str(path), str(stamps)]) == 1
        assert "violation" in capsys.readouterr().out


class TestProfile:
    def test_profile_metrics(self, trace_file, capsys):
        path, computation = trace_file
        assert main(["profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "width" in out
        assert "concurrency ratio" in out


class TestOrphans:
    def test_orphan_analysis(self, trace_file, capsys):
        path, computation = trace_file
        process = str(computation.messages[0].sender)
        assert main(["orphans", str(path), process, "--stable", "0"]) == 0
        out = capsys.readouterr().out
        assert f"crashed={process}" in out
        assert "lost=" in out

    def test_all_stable_no_orphans(self, trace_file, capsys):
        path, computation = trace_file
        process = str(computation.messages[0].sender)
        stable = len(computation.process_messages(process))
        assert (
            main(
                [
                    "orphans",
                    str(path),
                    process,
                    "--stable",
                    str(stable),
                ]
            )
            == 0
        )
        assert "lost=0 orphans=0" in capsys.readouterr().out


class TestRsc:
    def test_rsc_trace_converts(self, tmp_path, capsys):
        from repro.sim.asynchronous import synchronous_as_async
        from repro.sim.trace_io import dumps_async_computation

        sync = random_computation(complete_topology(4), 6, random.Random(3))
        expanded = synchronous_as_async(sync)
        trace = tmp_path / "async.json"
        trace.write_text(dumps_async_computation(expanded))
        output = tmp_path / "sync.json"
        assert main(["rsc", str(trace), "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "RSC" in out
        converted = json.loads(output.read_text())
        assert len(converted["messages"]) == 6

    def test_crown_reported(self, tmp_path, capsys):
        from repro.sim.asynchronous import classic_crown
        from repro.sim.trace_io import dumps_async_computation

        trace = tmp_path / "crown.json"
        trace.write_text(dumps_async_computation(classic_crown()))
        assert main(["rsc", str(trace)]) == 1
        assert "NOT RSC" in capsys.readouterr().out


class TestDiagramAndDemo:
    def test_diagram(self, trace_file, capsys):
        path, _ = trace_file
        assert main(["diagram", str(path)]) == 0
        assert "o" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "(1,1,1)" in out


class TestObs:
    def test_obs_run_emits_artifacts(self, tmp_path, capsys):
        """Acceptance: JSONL with one span pair per rendezvous, plus a
        Prometheus dump whose gauges satisfy Theorems 4 and 5."""
        from repro.obs import instrument
        from repro.obs.export import read_trace_jsonl

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "obs",
                    "--family",
                    "ring:4",
                    "--rounds",
                    "3",
                    "--trace-out",
                    str(trace),
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "rendezvous" in out
        assert "theorem5 bound" in out

        spans = read_trace_jsonl(str(trace))
        receives = [s for s in spans if s.name == "rendezvous.receive"]
        sends = [s for s in spans if s.name == "rendezvous.send"]
        # ring:4 x 3 rounds = 12 rendezvous; >= 1 span per rendezvous.
        assert len(receives) == 12
        assert len(sends) == 12

        prom = metrics.read_text()
        assert "rendezvous_total 12" in prom
        # Theorem 4: component count == decomposition size; Theorem 5:
        # size <= min(beta(G), N-2) (both 2 for a 4-ring).
        assert "vector_component_count 2" in prom
        assert "decomposition_size 2" in prom
        assert "theorem5_bound 2" in prom
        # The session restored the disabled state afterwards.
        assert not instrument.is_enabled()

    def test_obs_defaults_print_prometheus(self, capsys):
        assert main(["obs"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE rendezvous_total counter" in out
        assert "vector_component_count" in out

    def test_obs_json_metrics(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "obs",
                    "--family",
                    "star:4",
                    "--metrics-out",
                    str(metrics),
                    "--metrics-format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(metrics.read_text())
        assert payload["vector_component_count"]["value"] == 1

    def test_obs_rejects_bad_rounds(self):
        with pytest.raises(SystemExit):
            main(["obs", "--family", "ring:4", "--rounds", "0"])

    def test_obs_flight_recorder_dump(self, tmp_path, capsys):
        from repro.obs import flightrec

        flight = tmp_path / "flight.jsonl"
        assert (
            main(
                [
                    "obs",
                    "--family",
                    "ring:4",
                    "--rounds",
                    "2",
                    "--flight-out",
                    str(flight),
                    "--metrics-out",
                    str(tmp_path / "m.prom"),
                ]
            )
            == 0
        )
        assert "flight event(s) written" in capsys.readouterr().out
        events = flightrec.load_jsonl(str(flight))
        kinds = {event.kind for event in events}
        assert flightrec.RENDEZVOUS in kinds
        assert flightrec.SCRIPT_END in kinds
        # The session uninstalled the recorder afterwards.
        assert flightrec.recorder is None

    def test_obs_audit_reports_clean(self, tmp_path, capsys):
        from repro.obs import audit

        assert (
            main(
                [
                    "obs",
                    "--family",
                    "ring:4",
                    "--rounds",
                    "2",
                    "--audit-rate",
                    "1.0",
                    "--metrics-out",
                    str(tmp_path / "m.prom"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "audit pairs checked" in out
        assert "audit violations     | 0" in out
        assert audit.auditor is None

    def test_obs_rejects_bad_audit_rate(self):
        with pytest.raises(SystemExit):
            main(["obs", "--family", "ring:4", "--audit-rate", "1.5"])


class TestMalformedFamilySpecs:
    """Satellite: one-line SystemExit, never a traceback."""

    @pytest.mark.parametrize(
        "spec", ["ring:one", "ring:0", "tree:3", "bogus:4", "complete:"]
    )
    def test_obs_exits_nonzero_with_one_line_error(self, spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "--family", spec])
        code = excinfo.value.code
        # argparse-style SystemExit: either a small int or the one-line
        # message itself; both print a single line, not a traceback.
        assert code not in (0, None)
        message = str(code)
        assert "\n" not in message
        assert "Traceback" not in message

    def test_decompose_bad_family_value(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["decompose", "--family", "ring:0"])
        assert "bad topology spec" in str(excinfo.value.code)


class TestMalformedTraces:
    """Every trace subcommand exits with one line naming the file."""

    BREAKAGES = {
        "no-messages": (
            lambda data: data.pop("messages"),
            "missing key 'messages'",
        ),
        "no-receiver": (
            lambda data: data["messages"][0].pop("receiver"),
            "missing key 'receiver'",
        ),
        "unknown-process": (
            lambda data: data["messages"][0].update(receiver="P99"),
            "'P99' of message m1 is not in the system",
        ),
    }

    COMMANDS = {
        "stamp": [],
        "check": ["assignment.json"],
        "diagram": [],
        "profile": [],
        "orphans": ["P1"],
    }

    @pytest.mark.parametrize("breakage", sorted(BREAKAGES))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_line_error(self, trace_file, tmp_path, command, breakage):
        path, _ = trace_file
        data = json.loads(path.read_text())
        corrupt, expected = self.BREAKAGES[breakage]
        corrupt(data)
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(broken), *self.COMMANDS[command]])
        message = str(excinfo.value.code)
        assert message.startswith(f"bad trace {str(broken)!r}: ")
        assert expected in message
        assert "\n" not in message

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
    def test_unreadable_file(self, tmp_path, content):
        path = tmp_path / "trace.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit, match="bad trace"):
            main(["stamp", str(path)])


class TestMalformedAssignments:
    """``check`` exits with one line naming a bad assignment file."""

    BREAKAGES = {
        "missing-file": (None, "No such file"),
        "bad-json": ("{not json", "Expecting property name"),
        "version-2": (
            lambda data: data.update(version=2),
            "unsupported assignment format version 2",
        ),
        "unknown-message": (
            lambda data: data["timestamps"].update(m99=[0, 0]),
            "no message named 'm99'",
        ),
        "no-timestamp": (
            lambda data: data["timestamps"].pop("m1"),
            "missing timestamps for ['m1']",
        ),
        "scalar-entry": (
            lambda data: data["timestamps"].update(m1=3),
            "'int' object is not iterable",
        ),
        "mixed-lengths": (
            lambda data: data["timestamps"]["m2"].append(0),
            "timestamps differ in length: 'm1' has",
        ),
    }

    @pytest.mark.parametrize("breakage", sorted(BREAKAGES))
    def test_one_line_error(self, trace_file, tmp_path, breakage):
        path, _ = trace_file
        stamps = tmp_path / "stamps.json"
        assert main(["stamp", str(path), "--output", str(stamps)]) == 0
        corrupt, expected = self.BREAKAGES[breakage]
        if corrupt is None:
            stamps.unlink()
        elif isinstance(corrupt, str):
            stamps.write_text(corrupt)
        else:
            data = json.loads(stamps.read_text())
            corrupt(data)
            stamps.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(path), str(stamps)])
        message = str(excinfo.value.code)
        assert message.startswith(f"bad assignment {str(stamps)!r}: ")
        assert expected in message
        assert "\n" not in message


class TestObsReport:
    def _bench_dir(self, tmp_path, per_sec):
        bench = tmp_path / f"BENCH_x_{per_sec}"
        bench.mkdir()
        (bench / "BENCH_x.json").write_text(
            json.dumps({"run": {"messages_per_sec": per_sec}})
        )
        return bench

    def test_report_merges_committed_snapshots(self, capsys):
        """Acceptance: `repro obs report` merges every committed
        BENCH_*.json snapshot."""
        assert main(["obs", "report", "--dir", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        for source in (
            "obs",
            "batch",
            "offline",
            "lattice",
            "runtime",
            "wire",
        ):
            assert source in out
        assert "6 snapshot(s)" in out

    def test_gate_fails_on_doctored_baseline(self, tmp_path, capsys):
        """Acceptance: a doctored baseline with a >20% regression makes
        the gate exit non-zero."""
        current = self._bench_dir(tmp_path, 70.0)
        baseline_dir = self._bench_dir(tmp_path, 100.0)
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "obs",
                    "report",
                    "--dir",
                    str(baseline_dir),
                    "--report-format",
                    "json",
                    "--out",
                    str(baseline),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "obs",
                    "report",
                    "--dir",
                    str(current),
                    "--baseline",
                    str(baseline),
                    "--tolerance",
                    "0.2",
                ]
            )
            == 1
        )
        assert "REGRESSION" in capsys.readouterr().out

    def test_warn_only_exits_zero(self, tmp_path, capsys):
        current = self._bench_dir(tmp_path, 10.0)
        baseline_dir = self._bench_dir(tmp_path, 100.0)
        baseline = tmp_path / "baseline.json"
        main(
            [
                "obs",
                "report",
                "--dir",
                str(baseline_dir),
                "--report-format",
                "json",
                "--out",
                str(baseline),
            ]
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "obs",
                    "report",
                    "--dir",
                    str(current),
                    "--baseline",
                    str(baseline),
                    "--warn-only",
                ]
            )
            == 0
        )

    def test_committed_baseline_gate_passes(self, capsys):
        assert (
            main(
                [
                    "obs",
                    "report",
                    "--dir",
                    str(REPO_ROOT),
                    "--baseline",
                    str(
                        REPO_ROOT
                        / "benchmarks/baselines/bench_baseline.json"
                    ),
                    "--warn-only",
                ]
            )
            == 0
        )
        assert "regression gate" in capsys.readouterr().out

    def test_empty_dir_is_a_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "report", "--dir", str(tmp_path)])
        assert "no BENCH_" in str(excinfo.value.code)

    def test_markdown_format(self, tmp_path, capsys):
        current = self._bench_dir(tmp_path, 50.0)
        assert (
            main(
                [
                    "obs",
                    "report",
                    "--dir",
                    str(current),
                    "--report-format",
                    "markdown",
                ]
            )
            == 0
        )
        assert "| source | metric |" in capsys.readouterr().out


class TestObsTimelineCritpath:
    def _record(self, tmp_path, capacity=None, rounds="2"):
        flight = tmp_path / "flight.jsonl"
        argv = [
            "obs",
            "--family",
            "ring:4",
            "--rounds",
            rounds,
            "--flight-out",
            str(flight),
        ]
        if capacity is not None:
            argv += ["--flight-capacity", str(capacity)]
        assert main(argv) == 0
        return flight

    def test_timeline_end_to_end(self, tmp_path, capsys):
        """Acceptance: record -> timeline emits valid Chrome trace
        JSON with one flow arrow per rendezvous."""
        flight = self._record(tmp_path)
        out = tmp_path / "run.json"
        assert (
            main(
                [
                    "obs",
                    "timeline",
                    "--flight-in",
                    str(flight),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "ui.perfetto.dev" in stdout
        document = json.loads(out.read_text())
        assert document["displayTimeUnit"] == "ms"
        flows = [
            e for e in document["traceEvents"] if e["ph"] == "s"
        ]
        rendezvous = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "i" and e.get("cat") == "rendezvous"
        ]
        # ring:4 x 2 rounds = 8 rendezvous, each with a flow arrow.
        assert len(rendezvous) == 8
        assert len(flows) == 8

    def test_timeline_to_stdout(self, tmp_path, capsys):
        flight = self._record(tmp_path, rounds="1")
        capsys.readouterr()  # drop the recording run's own output
        assert (
            main(["obs", "timeline", "--flight-in", str(flight)])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["traceEvents"]

    def test_critpath_end_to_end(self, tmp_path, capsys):
        flight = self._record(tmp_path)
        assert (
            main(
                [
                    "obs",
                    "critpath",
                    "--flight-in",
                    str(flight),
                    "--top-k",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Critical path" in out
        assert "Top bottleneck rendezvous" in out
        assert "Blocked vs running per process" in out

    def test_critpath_markdown_to_file(self, tmp_path):
        flight = self._record(tmp_path)
        report = tmp_path / "critpath.md"
        assert (
            main(
                [
                    "obs",
                    "critpath",
                    "--flight-in",
                    str(flight),
                    "--report-format",
                    "markdown",
                    "--out",
                    str(report),
                ]
            )
            == 0
        )
        assert "## Critical path" in report.read_text()

    def test_critpath_rejects_json_format(self, tmp_path):
        flight = self._record(tmp_path)
        with pytest.raises(SystemExit, match="text or markdown"):
            main(
                [
                    "obs",
                    "critpath",
                    "--flight-in",
                    str(flight),
                    "--report-format",
                    "json",
                ]
            )

    def test_flight_in_is_required(self):
        with pytest.raises(SystemExit, match="--flight-in"):
            main(["obs", "timeline"])
        with pytest.raises(SystemExit, match="--flight-in"):
            main(["obs", "critpath"])

    def test_empty_flight_record_is_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit, match="no events"):
            main(["obs", "timeline", "--flight-in", str(empty)])

    def test_truncated_record_warns_on_stderr(self, tmp_path, capsys):
        """Satellite: analyzing an overflowed ring warns instead of
        silently profiling a prefix."""
        flight = self._record(tmp_path, capacity=16, rounds="4")
        assert (
            main(["obs", "critpath", "--flight-in", str(flight)])
            == 0
        )
        err = capsys.readouterr().err
        assert "warning:" in err
        assert "surviving suffix" in err
        assert "--flight-capacity" in err

    def test_run_mode_prints_quantiles(self, capsys):
        assert main(["obs", "--family", "ring:4"]) == 0
        out = capsys.readouterr().out
        assert "block p50/p95/p99" in out
        assert "stamp latency p99" in out


class TestRunDistributed:
    def test_script_mode_prints_stats(self, capsys):
        assert (
            main(
                [
                    "run-distributed",
                    "--family",
                    "ring:4",
                    "--rounds",
                    "1",
                    "--timeout",
                    "20",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "node processes" in out
        assert "messages committed" in out
        assert "block p50/p95/p99" in out
        assert "piggyback bytes/s" in out

    def test_load_mode_writes_flight_and_json(self, tmp_path, capsys):
        flight = tmp_path / "flight.jsonl"
        stats = tmp_path / "stats.json"
        assert (
            main(
                [
                    "run-distributed",
                    "--load",
                    "--servers",
                    "1",
                    "--clients",
                    "3",
                    "--messages",
                    "2",
                    "--timeout",
                    "20",
                    "--flight-out",
                    str(flight),
                    "--json-out",
                    str(stats),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "flight event(s) written" in out
        payload = json.loads(stats.read_text())
        assert payload["messages"] == 6
        assert payload["nodes"] == 4
        assert payload["piggyback_bytes"] > 0
        assert "block_p99_ms" in payload
        # The flight record feeds the existing analyzers.
        assert (
            main(["obs", "critpath", "--flight-in", str(flight)]) == 0
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(SystemExit):
            main(["run-distributed", "--rounds", "0"])
        with pytest.raises(SystemExit):
            main(["run-distributed", "--load", "--clients", "0"])
        with pytest.raises(SystemExit):
            main(["run-distributed", "--timeout", "0"])

    def test_rejects_bounded_wire_format(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run-distributed", "--load", "--wire-format", "bounded:8"]
            )
        assert excinfo.value.code == BOUNDED_SPEC_ERROR
