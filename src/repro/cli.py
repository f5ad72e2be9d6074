"""Command-line interface: ``python -m repro <command>``.

Commands operate on the JSON trace format of :mod:`repro.sim.trace_io`:

``decompose``
    Read a topology (JSON file or a built-in family spec) and print its
    edge decomposition; optionally emit Graphviz DOT.

``stamp``
    Read a computation trace and timestamp it with a chosen clock,
    printing a table or writing an assignment JSON.

``check``
    Verify a (computation, assignment) pair against the ground-truth
    order — the Equation (1) audit.

``diagram``
    Render a computation as an ASCII time diagram.

``profile``
    Print the concurrency profile (width, height, densities) of a trace.

``orphans``
    Crash analysis: classify lost/orphan/surviving messages after a
    process loses its unstable tail.

``demo``
    Reproduce the paper's Figure 6 sample execution.

``obs``
    Run the rendezvous runtime demo with observability enabled and
    export the structured trace (JSONL) and metrics (Prometheus text
    or JSON) — the live counterpart of the Theorem 4–8 size bounds.
    Optional flags record a causal flight record (``--flight-out``)
    and cross-check live timestamps against the ground truth
    (``--audit-rate``); ``obs report`` merges the ``BENCH_*.json``
    snapshots into a gated bench-trajectory report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.report import render_table
from repro.clocks.fm import FMMessageClock
from repro.clocks.lamport import LamportMessageClock
from repro.clocks.offline import OfflineRealizerClock
from repro.clocks.online import OnlineEdgeClock
from repro.core.vector import VectorTimestamp
from repro.exceptions import ReproError
from repro.graphs.decomposition import decompose
from repro.graphs.generators import (
    client_server_topology,
    complete_topology,
    path_topology,
    ring_topology,
    star_topology,
    tree_topology,
)
from repro.order.checker import check_encoding
from repro.sim.trace_io import (
    assignment_from_dict,
    assignment_to_dict,
    computation_from_dict,
    topology_from_dict,
)
from repro.viz.dot import decomposition_to_dot
from repro.viz.timediagram import render_time_diagram


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _parse_file(kind: str, path: str, parse):
    """``parse`` the JSON in ``path``; any failure exits with one line
    naming the file — never a traceback."""
    try:
        return parse(_load_json(path))
    except KeyError as exc:
        raise SystemExit(f"bad {kind} {path!r}: missing key {exc}") from exc
    except (
        OSError, ValueError, TypeError, AttributeError, ReproError
    ) as exc:
        raise SystemExit(f"bad {kind} {path!r}: {exc}") from exc


def _load_trace(path: str):
    """Parse a computation trace file for the trace subcommands.

    A missing or unreadable file, malformed JSON, a missing key, or a
    computation that breaks the model (a message naming an unknown
    process, say) exits with a one-line error naming the file — never
    a traceback.
    """
    return _parse_file("trace", path, computation_from_dict)


def _load_assignment(computation, path: str):
    """Parse the assignment file of ``check``.

    A missing file, bad JSON, an unsupported version, an unknown or
    missing message, or an entry that is not a list exits with a
    one-line error naming the file.
    """
    return _parse_file(
        "assignment",
        path,
        lambda data: assignment_from_dict(computation, data),
    )


def _write_assignment(path: str, assignment, clock: str) -> None:
    """Write ``assignment`` to ``path`` as JSON, serialising first so a
    failure leaves an existing file untouched.  The format stores
    vectors only, so a clock with other stamps exits with one line."""
    for _, stamp in assignment.items():
        if not isinstance(stamp, VectorTimestamp):
            raise SystemExit(
                f"--output stores vector timestamps; --clock {clock} "
                f"stamps are {type(stamp).__name__}"
            )
    text = json.dumps(assignment_to_dict(assignment), indent=2)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"assignment written to {path}")


def _builtin_topology(spec: str):
    """Parse family specs like ``complete:6`` or ``client-server:2x10``.

    Every malformed spec — a non-numeric size (``ring:one``), an
    out-of-range one (``ring:0``), or an unknown family — exits with a
    one-line error, never a traceback.
    """
    family, _, arg = spec.partition(":")
    try:
        if family == "complete":
            return complete_topology(int(arg))
        if family == "path":
            return path_topology(int(arg))
        if family == "ring":
            return ring_topology(int(arg))
        if family == "star":
            return star_topology(int(arg))
        if family == "tree":
            hubs, _, leaves = arg.partition("x")
            return tree_topology(int(hubs), int(leaves))
        if family == "client-server":
            servers, _, clients = arg.partition("x")
            return client_server_topology(int(servers), int(clients))
    except (ValueError, ReproError) as exc:
        raise SystemExit(f"bad topology spec {spec!r}: {exc}") from exc
    raise SystemExit(
        f"unknown topology family {family!r}; choose from complete, path, "
        "ring, star, tree, client-server"
    )


def _resolve_topology(args) -> "object":
    if args.topology_file:
        return topology_from_dict(_load_json(args.topology_file))
    if args.family:
        return _builtin_topology(args.family)
    raise SystemExit("provide --topology-file or --family")


def _make_clock(name: str, topology):
    if name == "online":
        return OnlineEdgeClock(decompose(topology))
    if name == "offline":
        return OfflineRealizerClock()
    if name == "fm":
        return FMMessageClock.for_topology(topology)
    if name == "lamport":
        return LamportMessageClock.for_topology(topology)
    raise SystemExit(f"unknown clock {name!r}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_decompose(args) -> int:
    topology = _resolve_topology(args)
    decomposition = decompose(topology)
    print(
        f"{topology.vertex_count()} processes, "
        f"{topology.edge_count()} channels -> "
        f"{decomposition.size} edge group(s)"
    )
    print(decomposition.describe())
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(decomposition_to_dot(decomposition))
        print(f"DOT written to {args.dot}")
    return 0


def _stamp_wire(args, computation) -> int:
    """``stamp --wire-format delta``: the codec fast path."""
    from repro.clocks.base import TimestampAssignment
    from repro.core.fastpath import stamp_batch_wire
    from repro.sim.wire import WireError, parse_wire_format

    if args.clock != "online":
        raise SystemExit(
            "--wire-format applies to the online edge clock only "
            f"(got --clock {args.clock})"
        )
    try:
        parse_wire_format(args.wire_format)
    except WireError as exc:
        raise SystemExit(f"--wire-format: {exc}") from exc

    decomposition = decompose(computation.topology)
    timestamps, wire_stats = stamp_batch_wire(
        computation,
        decomposition,
        wire_format=args.wire_format,
        verify=True,
    )
    assignment = TimestampAssignment(computation, timestamps)
    if args.output:
        _write_assignment(args.output, assignment, args.clock)
    else:
        rows = [
            [
                message.name,
                f"{message.sender}->{message.receiver}",
                repr(assignment.of(message)),
            ]
            for message in computation.messages
        ]
        print(render_table(["msg", "channel", "timestamp"], rows))
    print(
        f"clock=online vector_size={decomposition.size} "
        f"messages={len(computation)}"
    )
    print(
        f"wire_format={args.wire_format} "
        f"frames={wire_stats.frames} "
        f"payload_bytes={wire_stats.payload_bytes} "
        f"bytes_per_message={wire_stats.bytes_per_message:.3f} "
        f"resyncs={wire_stats.resyncs}"
    )
    return 0


def cmd_stamp(args) -> int:
    computation = _load_trace(args.trace)
    wire_format = getattr(args, "wire_format", "full")
    if wire_format != "full":
        return _stamp_wire(args, computation)
    clock = _make_clock(args.clock, computation.topology)
    assignment = clock.timestamp_computation(computation)
    if args.output:
        _write_assignment(args.output, assignment, args.clock)
    else:
        rows = [
            [
                message.name,
                f"{message.sender}->{message.receiver}",
                repr(assignment.of(message)),
            ]
            for message in computation.messages
        ]
        print(render_table(["msg", "channel", "timestamp"], rows))
    print(
        f"clock={args.clock} vector_size={clock.timestamp_size} "
        f"messages={len(computation)}"
    )
    return 0


def cmd_check(args) -> int:
    computation = _load_trace(args.trace)
    assignment = _load_assignment(computation, args.assignment)
    clock = _make_clock(args.clock, computation.topology)
    report = check_encoding(clock, assignment)
    print(
        f"consistent={report.consistent} "
        f"characterizes={report.characterizes} "
        f"ordered={report.ordered_pairs} "
        f"concurrent={report.concurrent_pairs}"
    )
    for violation in (
        report.consistency_violations[:5]
        + report.completeness_violations[:5]
    ):
        print(f"  {violation.describe()}")
    return 0 if report.characterizes else 1


def cmd_diagram(args) -> int:
    computation = _load_trace(args.trace)
    print(render_time_diagram(computation))
    return 0


def cmd_profile(args) -> int:
    from repro.analysis.profile import profile_computation

    computation = _load_trace(args.trace)
    profile = profile_computation(computation)
    print(
        render_table(
            ["metric", "value"],
            [
                ["messages", profile.message_count],
                ["width", profile.width],
                ["height", profile.height],
                ["ordered pairs", profile.ordered_pairs],
                ["concurrent pairs", profile.concurrent_pairs],
                ["order density", f"{profile.order_density:.3f}"],
                ["concurrency ratio", f"{profile.concurrency_ratio:.3f}"],
            ],
        )
    )
    return 0


def cmd_orphans(args) -> int:
    from repro.apps.recovery import find_orphans

    computation = _load_trace(args.trace)
    clock = _make_clock(args.clock, computation.topology)
    assignment = clock.timestamp_computation(computation)
    report = find_orphans(
        computation, assignment, args.process, args.stable
    )
    survivors = report.surviving_messages(computation)
    print(
        f"crashed={args.process} stable={args.stable} "
        f"lost={len(report.lost)} orphans={len(report.orphans)} "
        f"survive={len(survivors)}"
    )
    rows = [
        [message.name, f"{message.sender}->{message.receiver}", kind]
        for kind, messages in (
            ("lost", report.lost),
            ("orphan", report.orphans),
        )
        for message in messages
    ]
    if rows:
        print(render_table(["msg", "channel", "classification"], rows))
    return 0


def cmd_rsc(args) -> int:
    from repro.sim.asynchronous import find_crown, to_synchronous
    from repro.sim.trace_io import (
        computation_to_dict,
        loads_async_computation,
    )

    with open(args.trace, "r", encoding="utf-8") as handle:
        computation = loads_async_computation(handle.read())
    crown = find_crown(computation)
    if crown is not None:
        names = " -> ".join(m.name for m in crown)
        print(f"NOT RSC: crown of size {len(crown)}: {names}")
        return 1
    sync = to_synchronous(computation)
    print(
        f"RSC: {len(computation)} asynchronous messages realizable as a "
        "synchronous computation"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(computation_to_dict(sync), handle, indent=2)
        print(f"synchronous trace written to {args.output}")
    return 0


def cmd_obs(args) -> int:
    if args.mode == "report":
        return cmd_obs_report(args)
    if args.mode == "timeline":
        return cmd_obs_timeline(args)
    if args.mode == "critpath":
        return cmd_obs_critpath(args)
    if args.mode == "top":
        return cmd_obs_top(args)

    from contextlib import ExitStack

    from repro.apps.monitor import CausalMonitor
    from repro.obs import audit as obs_audit
    from repro.obs import flightrec as obs_flightrec
    from repro.obs import instrument
    from repro.obs.export import (
        render_prometheus,
        write_metrics,
        write_trace_jsonl,
    )
    from repro.sim.runtime import ScriptRunner, receive, send

    if args.topology_file:
        topology = topology_from_dict(_load_json(args.topology_file))
    else:
        topology = _builtin_topology(args.family)
    if args.rounds < 1:
        raise SystemExit("--rounds must be at least 1")
    if not 0.0 <= args.audit_rate <= 1.0:
        raise SystemExit("--audit-rate must be in [0, 1]")
    if args.flight_capacity < 1:
        raise SystemExit("--flight-capacity must be at least 1")

    with ExitStack() as stack:
        obs = stack.enter_context(
            instrument.enabled_session(
                trace_capacity=args.trace_capacity
            )
        )
        flight = None
        if args.flight_out:
            flight = stack.enter_context(
                obs_flightrec.recording_session(
                    capacity=args.flight_capacity
                )
            )
        auditor = None
        if args.audit_rate > 0:
            auditor = stack.enter_context(
                obs_audit.audit_session(sample_rate=args.audit_rate)
            )
        # Exact vertex cover keeps the theorem5_bound gauge the true
        # min(beta(G), N-2) on demo-sized topologies; larger graphs
        # fall back to the greedy-cover upper bound.
        use_exact = topology.edge_count() <= 32
        decomposition = decompose(topology, use_exact_cover=use_exact)

        # One rendezvous per channel per round, every process following
        # the same global edge order, so the schedule is deadlock-free;
        # direction alternates per round to exercise both endpoints.
        scripts = {process: [] for process in topology.vertices}
        for round_index in range(args.rounds):
            for edge in topology.edges:
                u, v = edge.endpoints
                if round_index % 2:
                    u, v = v, u
                scripts[u].append(send(v, f"round-{round_index}"))
                scripts[v].append(receive(u))
        transport = ScriptRunner(
            decomposition, scripts, timeout=args.timeout
        ).run()

        monitor = CausalMonitor(decomposition.size)
        for entry in transport.log:
            monitor.ingest(
                f"m{entry.order}",
                entry.sender,
                entry.receiver,
                entry.timestamp,
            )

        active_tracer = instrument.get_tracer()
        spans = active_tracer.finished()
        dropped = active_tracer.dropped_count
        registry = obs.registry
        snapshot = registry.snapshot()
        wait_hist = obs.rendezvous_wait_seconds
        rows = [
            ["processes", topology.vertex_count()],
            ["channels", topology.edge_count()],
            ["rendezvous", snapshot["rendezvous_total"]["value"]],
            [
                "vector components",
                snapshot["vector_component_count"]["value"],
            ],
            ["decomposition size", snapshot["decomposition_size"]["value"]],
            [
                "theorem5 bound",
                snapshot["theorem5_bound"]["value"],
            ],
            [
                "mean rendezvous wait",
                f"{wait_hist.mean() * 1e3:.3f} ms",
            ],
            [
                "block p50/p95/p99",
                "/".join(
                    f"{obs.rendezvous_block_quantiles.quantile(q) * 1e3:.3f}"
                    for q in (0.5, 0.95, 0.99)
                )
                + " ms",
            ],
            [
                "stamp latency p99",
                f"{obs.stamp_latency_quantiles.quantile(0.99) * 1e6:.1f}"
                " us",
            ],
            ["spans collected", len(spans)],
            ["clock overhead", monitor.overhead().describe()],
        ]
        if auditor is not None:
            rows.insert(
                -1,
                [
                    "audit pairs checked",
                    snapshot["audit_pairs_checked_total"]["value"],
                ],
            )
            rows.insert(
                -1,
                [
                    "audit violations",
                    snapshot["audit_violations_total"]["value"],
                ],
            )
        if dropped:
            rows.insert(
                -1,
                [
                    "spans dropped (ring full)",
                    f"{dropped}; raise --trace-capacity",
                ],
            )
        print(render_table(["metric", "value"], rows))

        if flight is not None:
            count = flight.dump_jsonl(args.flight_out)
            print(
                f"{count} flight event(s) written to {args.flight_out}"
                + (
                    f" ({flight.dropped_count} evicted)"
                    if flight.dropped_count
                    else ""
                )
            )
        if auditor is not None and auditor.violations:
            for violation in auditor.violations[:5]:
                print(f"AUDIT VIOLATION: {violation.describe()}")

        if args.trace_out:
            count = write_trace_jsonl(spans, args.trace_out)
            print(f"{count} span(s) written to {args.trace_out}")
        if args.metrics_out:
            write_metrics(registry, args.metrics_out, fmt=args.metrics_format)
            print(
                f"metrics ({args.metrics_format}) written to "
                f"{args.metrics_out}"
            )
        else:
            print()
            print(render_prometheus(registry), end="")
        if auditor is not None and auditor.violations:
            return 1
    return 0


def _load_flight_events(args):
    """Load ``--flight-in`` and warn (stderr) when it is truncated."""
    from repro.obs import flightrec as obs_flightrec

    if not args.flight_in:
        raise SystemExit(
            f"obs {args.mode}: --flight-in FLIGHT.jsonl is required "
            "(record one with 'repro obs run --flight-out ...')"
        )
    events = obs_flightrec.load_jsonl(args.flight_in)
    if not events:
        raise SystemExit(
            f"obs {args.mode}: {args.flight_in!r} holds no events"
        )
    summary = obs_flightrec.truncation_summary(events)
    if summary.truncated:
        print(
            f"warning: {summary.describe()}; the analysis below "
            "covers the surviving suffix only (raise "
            "--flight-capacity when recording)",
            file=sys.stderr,
        )
    return events


def cmd_obs_timeline(args) -> int:
    from repro.obs import flightrec as obs_flightrec
    from repro.obs import timeline as obs_timeline

    events = _load_flight_events(args)
    computation = None
    try:
        if args.topology_file:
            topology = topology_from_dict(
                _load_json(args.topology_file)
            )
        else:
            from repro.obs.critpath import _topology_from_events

            topology = _topology_from_events(events)
        computation = obs_flightrec.reconstruct_computation(
            events, topology, allow_partial_prefix=True
        )
    except Exception as exc:  # noqa: BLE001 - names are optional
        print(
            "warning: could not reconstruct the computation "
            f"({exc}); exporting without message names",
            file=sys.stderr,
        )
    if args.out:
        count = obs_timeline.write_timeline(
            events, args.out, computation
        )
        print(
            f"{count} trace event(s) written to {args.out}; open it "
            "at https://ui.perfetto.dev or chrome://tracing"
        )
    else:
        print(obs_timeline.timeline_json(events, computation))
    return 0


def cmd_obs_critpath(args) -> int:
    from repro.obs import critpath as obs_critpath

    events = _load_flight_events(args)
    topology = None
    if args.topology_file:
        topology = topology_from_dict(_load_json(args.topology_file))
    decomposition = None
    try:
        if topology is None:
            from repro.obs.critpath import _topology_from_events

            topology = _topology_from_events(events)
        decomposition = decompose(topology)
    except Exception:  # noqa: BLE001 - group labels are optional
        decomposition = None
    try:
        result = obs_critpath.analyze_flight_record(
            events, topology, decomposition
        )
    except ValueError as exc:
        raise SystemExit(f"obs critpath: {exc}") from exc
    if args.top_k < 1:
        raise SystemExit("--top-k must be at least 1")
    renderer = {
        "text": obs_critpath.render_text,
        "markdown": obs_critpath.render_markdown,
    }.get(args.report_format)
    if renderer is None:
        raise SystemExit(
            "obs critpath: --report-format must be text or markdown"
        )
    rendered = renderer(result, top_k=args.top_k)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"critical-path report written to {args.out}")
    else:
        print(rendered, end="")
    return 0


def cmd_obs_report(args) -> int:
    from repro.obs import report as obs_report

    try:
        current = obs_report.load_bench_dir(args.dir)
    except obs_report.BenchReportError as exc:
        raise SystemExit(f"obs report: {exc}") from exc
    if not len(current):
        raise SystemExit(
            f"obs report: no BENCH_*.json snapshots under {args.dir!r}"
        )
    gate = None
    if args.baseline:
        if args.tolerance < 0:
            raise SystemExit("--tolerance must be non-negative")
        try:
            baseline = obs_report.load_baseline(args.baseline)
            gate = obs_report.compare_reports(
                current, baseline, tolerance=args.tolerance
            )
        except obs_report.BenchReportError as exc:
            raise SystemExit(f"obs report: {exc}") from exc
    renderer = {
        "text": obs_report.render_text,
        "markdown": obs_report.render_markdown,
        "json": obs_report.render_json,
    }[args.report_format]
    rendered = renderer(current, gate)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"report ({args.report_format}) written to {args.out}")
        if gate is not None:
            print(gate.describe())
    else:
        print(rendered, end="")
    if gate is not None and not gate.ok:
        if not gate.hard_ok:
            # Hard-gated rows (the baseline's hard_gate patterns, e.g.
            # runtime piggyback bytes) fail even in CI smoke mode.
            print(
                "error: hard-gated bench metric(s) regressed "
                "(--warn-only does not apply)",
                file=sys.stderr,
            )
            return 1
        if args.warn_only:
            print(
                "warning: bench regression gate failed "
                "(--warn-only: exiting 0)",
                file=sys.stderr,
            )
            return 0
        return 1
    return 0


def cmd_obs_top(args) -> int:
    """Live dashboard over a load run on the multiprocess runtime."""
    from repro.obs.live import TelemetryConfig, render_top
    from repro.sim.distributed import run_load

    if args.servers < 1 or args.clients < 1 or args.messages < 1:
        raise SystemExit(
            "--servers, --clients, and --messages must all be at least 1"
        )
    if args.refresh <= 0:
        raise SystemExit("--refresh must be positive")
    if args.timeout <= 0:
        raise SystemExit("--timeout must be positive")

    interactive = sys.stdout.isatty()
    state = {"last": 0.0}

    def repaint(aggregator, now) -> None:
        if now - state["last"] < args.refresh:
            return
        state["last"] = now
        frame = render_top(aggregator, now)
        if interactive:
            # Home + clear-to-end keeps the frame in place without
            # flicker on ANSI terminals.
            sys.stdout.write("\x1b[H\x1b[J" + frame + "\n")
        else:
            sys.stdout.write(frame + "\n\n")
        sys.stdout.flush()

    telemetry = TelemetryConfig(
        interval_seconds=max(min(args.refresh / 2.0, 1.0), 0.05),
        live_out=args.live_out,
        metrics_port=args.metrics_port,
        on_tick=repaint,
    )
    transport = run_load(
        server_count=args.servers,
        client_count=args.clients,
        messages_per_client=args.messages,
        rate=args.rate,
        timeout=args.timeout,
        telemetry=telemetry,
        slow_clients=args.slow_clients,
        slow_pace=args.slow_pace,
    )
    live = transport.live
    if live is not None:
        print(render_top(live))
        counts = live.event_counts()
        stats = transport.stats
        print(
            f"\nrun done: {stats.messages} messages in "
            f"{stats.wall_seconds:.2f}s, "
            f"{stats.telemetry_frames} telemetry frame(s), "
            f"{counts.get('straggler', 0)} straggler / "
            f"{counts.get('stall', 0)} stall / "
            f"{counts.get('deadlock_suspect', 0)} deadlock event(s)"
        )
        if args.live_out:
            print(f"live telemetry stream written to {args.live_out}")
    return 0


def cmd_run_distributed(args) -> int:
    """Run a script (or the load driver) on the multiprocess runtime."""
    from contextlib import ExitStack

    from repro.obs import flightrec as obs_flightrec
    from repro.obs.live import TelemetryConfig
    from repro.sim.distributed import (
        DistributedScriptRunner,
        run_load,
    )
    from repro.sim.runtime import receive, send
    from repro.sim.wire import WireError, parse_wire_format

    if args.timeout <= 0:
        raise SystemExit("--timeout must be positive")
    try:
        parse_wire_format(args.wire_format)
    except WireError as exc:
        raise SystemExit(f"--wire-format: {exc}") from exc

    telemetry = None
    if args.telemetry_interval > 0:
        if args.telemetry_commits < 0:
            raise SystemExit("--telemetry-commits must be non-negative")
        telemetry = TelemetryConfig(
            interval_seconds=args.telemetry_interval,
            every_commits=args.telemetry_commits,
            live_out=args.live_out,
            metrics_port=args.metrics_port,
        )
    elif args.live_out or args.metrics_port is not None:
        raise SystemExit(
            "--live-out/--metrics-port need the telemetry plane on: "
            "pass --telemetry-interval > 0"
        )
    if (args.slow_clients > 0 or args.slow_pace > 0) and not args.load:
        raise SystemExit(
            "--slow-clients/--slow-pace only apply to --load runs"
        )

    with ExitStack() as stack:
        flight = None
        if args.flight_out:
            if args.flight_capacity < 1:
                raise SystemExit("--flight-capacity must be at least 1")
            flight = stack.enter_context(
                obs_flightrec.recording_session(
                    capacity=args.flight_capacity
                )
            )

        if args.load:
            if args.servers < 1 or args.clients < 1 or args.messages < 1:
                raise SystemExit(
                    "--servers, --clients, and --messages must all be "
                    "at least 1"
                )
            transport = run_load(
                server_count=args.servers,
                client_count=args.clients,
                messages_per_client=args.messages,
                rate=args.rate,
                timeout=args.timeout,
                transport=args.transport,
                wire_format=args.wire_format,
                telemetry=telemetry,
                slow_clients=args.slow_clients,
                slow_pace=args.slow_pace,
            )
        else:
            if args.topology_file:
                topology = topology_from_dict(
                    _load_json(args.topology_file)
                )
            else:
                topology = _builtin_topology(args.family)
            if args.rounds < 1:
                raise SystemExit("--rounds must be at least 1")
            decomposition = decompose(topology)
            # Same deadlock-free schedule as `repro obs run`: one
            # rendezvous per channel per round in a global edge order,
            # alternating direction per round.
            scripts = {process: [] for process in topology.vertices}
            for round_index in range(args.rounds):
                for edge in topology.edges:
                    u, v = edge.endpoints
                    if round_index % 2:
                        u, v = v, u
                    scripts[u].append(send(v, f"round-{round_index}"))
                    scripts[v].append(receive(u))
            transport = DistributedScriptRunner(
                decomposition,
                scripts,
                timeout=args.timeout,
                transport=args.transport,
                wire_format=args.wire_format,
                telemetry=telemetry,
            ).run()

        stats = transport.stats
        quantiles = stats.block_quantiles_ms()
        rows = [
            ["node processes", stats.nodes],
            ["messages committed", stats.messages],
            ["timeouts", stats.timeouts],
            ["wall seconds", f"{stats.wall_seconds:.3f}"],
            ["traffic seconds", f"{stats.traffic_seconds:.3f}"],
            ["msg/s (traffic window)", f"{stats.messages_per_sec:.1f}"],
            [
                "block p50/p95/p99",
                "/".join(
                    f"{quantiles[key]:.3f}"
                    for key in ("p50", "p95", "p99")
                )
                + " ms",
            ],
            ["wire format", stats.wire_format],
            ["piggyback bytes", stats.piggyback_bytes],
            [
                "piggyback bytes/s",
                f"{stats.piggyback_bytes_per_sec:.1f}",
            ],
            [
                "piggyback bytes/msg",
                f"{stats.piggyback_bytes_per_message:.3f}",
            ],
            ["piggyback wire bytes", stats.piggyback_wire_bytes],
            ["delta resyncs", stats.delta_resync_total],
        ]
        live = transport.live
        if live is not None:
            counts = live.event_counts()
            rows.append(["telemetry frames", stats.telemetry_frames])
            rows.append(
                [
                    "health events",
                    "/".join(
                        f"{counts.get(kind, 0)} {kind}"
                        for kind in (
                            "straggler",
                            "stall",
                            "deadlock_suspect",
                        )
                    ),
                ]
            )
        print(render_table(["metric", "value"], rows))
        if live is not None and args.live_out:
            print(f"live telemetry stream written to {args.live_out}")

        if flight is not None:
            count = flight.dump_jsonl(args.flight_out)
            print(
                f"{count} flight event(s) written to {args.flight_out}"
                + (
                    f" ({flight.dropped_count} evicted)"
                    if flight.dropped_count
                    else ""
                )
            )
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(stats.to_dict(), handle, indent=2)
                handle.write("\n")
            print(f"runtime stats written to {args.json_out}")
    return 0


def cmd_demo(args) -> int:
    del args
    from repro.sim.paper_figures import figure6_computation

    computation, decomposition = figure6_computation()
    clock = OnlineEdgeClock(decomposition)
    assignment = clock.timestamp_computation(computation)
    print("Figure 6 sample execution (K5, 2 stars + 1 triangle):\n")
    print(decomposition.describe())
    print()
    print(
        render_time_diagram(
            computation,
            timestamps={m: v for m, v in assignment.items()},
        )
    )
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Timestamping messages in synchronous computations "
            "(Garg & Skawratananond, ICDCS 2002)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    decompose_cmd = commands.add_parser(
        "decompose", help="edge-decompose a communication topology"
    )
    decompose_cmd.add_argument("--topology-file", help="topology JSON")
    decompose_cmd.add_argument(
        "--family",
        help="built-in family, e.g. complete:6, tree:3x4, "
        "client-server:2x10",
    )
    decompose_cmd.add_argument("--dot", help="write Graphviz DOT here")
    decompose_cmd.set_defaults(handler=cmd_decompose)

    stamp_cmd = commands.add_parser(
        "stamp", help="timestamp a computation trace"
    )
    stamp_cmd.add_argument("trace", help="computation JSON file")
    stamp_cmd.add_argument(
        "--clock",
        default="online",
        choices=["online", "offline", "fm", "lamport"],
    )
    stamp_cmd.add_argument("--output", help="write assignment JSON here")
    stamp_cmd.add_argument(
        "--wire-format",
        default="full",
        metavar="full|delta",
        help="piggyback codec for the online clock (default full): "
        "'delta' sends per-channel differential frames with periodic "
        "resyncs (byte-identical timestamps)",
    )
    stamp_cmd.set_defaults(handler=cmd_stamp)

    check_cmd = commands.add_parser(
        "check", help="verify an assignment against the ground truth"
    )
    check_cmd.add_argument("trace", help="computation JSON file")
    check_cmd.add_argument("assignment", help="assignment JSON file")
    check_cmd.add_argument(
        "--clock",
        default="online",
        choices=["online", "offline", "fm", "lamport"],
    )
    check_cmd.set_defaults(handler=cmd_check)

    diagram_cmd = commands.add_parser(
        "diagram", help="render an ASCII time diagram"
    )
    diagram_cmd.add_argument("trace", help="computation JSON file")
    diagram_cmd.set_defaults(handler=cmd_diagram)

    profile_cmd = commands.add_parser(
        "profile", help="concurrency profile of a computation trace"
    )
    profile_cmd.add_argument("trace", help="computation JSON file")
    profile_cmd.set_defaults(handler=cmd_profile)

    orphans_cmd = commands.add_parser(
        "orphans", help="crash analysis: lost/orphan classification"
    )
    orphans_cmd.add_argument("trace", help="computation JSON file")
    orphans_cmd.add_argument("process", help="the crashed process")
    orphans_cmd.add_argument(
        "--stable",
        type=int,
        default=0,
        help="messages of the crashed process that survived",
    )
    orphans_cmd.add_argument(
        "--clock",
        default="online",
        choices=["online", "offline", "fm", "lamport"],
    )
    orphans_cmd.set_defaults(handler=cmd_orphans)

    rsc_cmd = commands.add_parser(
        "rsc",
        help="test an asynchronous trace for synchronous realizability "
        "(crown-freedom) and optionally convert it",
    )
    rsc_cmd.add_argument("trace", help="asynchronous trace JSON file")
    rsc_cmd.add_argument(
        "--output", help="write the converted synchronous trace here"
    )
    rsc_cmd.set_defaults(handler=cmd_rsc)

    demo_cmd = commands.add_parser(
        "demo", help="reproduce the paper's Figure 6 execution"
    )
    demo_cmd.set_defaults(handler=cmd_demo)

    dist_cmd = commands.add_parser(
        "run-distributed",
        help="run the multiprocess socket runtime: one OS process per "
        "node, rendezvous over Unix/TCP sockets, timestamps "
        "piggybacked as LEB128 bytes on the wire",
    )
    dist_cmd.add_argument("--topology-file", help="topology JSON")
    dist_cmd.add_argument(
        "--family",
        default="ring:4",
        help="built-in family (default ring:4), e.g. complete:5, "
        "tree:3x4, client-server:2x10",
    )
    dist_cmd.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="rendezvous rounds over every channel (default 3)",
    )
    dist_cmd.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-rendezvous timeout in seconds (default 30)",
    )
    dist_cmd.add_argument(
        "--transport",
        default="auto",
        choices=["auto", "unix", "tcp"],
        help="socket family (default auto: Unix where available)",
    )
    dist_cmd.add_argument(
        "--load",
        action="store_true",
        help="load-driver mode: client-server traffic instead of the "
        "per-channel round schedule",
    )
    dist_cmd.add_argument(
        "--servers",
        type=int,
        default=2,
        help="[load] server (hub) processes (default 2)",
    )
    dist_cmd.add_argument(
        "--clients",
        type=int,
        default=10,
        help="[load] client processes (default 10)",
    )
    dist_cmd.add_argument(
        "--messages",
        type=int,
        default=5,
        help="[load] messages per client (default 5)",
    )
    dist_cmd.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="[load] target aggregate msg/s (default 0: unpaced)",
    )
    dist_cmd.add_argument(
        "--flight-out",
        help="record a flight-recorder ring during the run and write "
        "it here as JSONL",
    )
    dist_cmd.add_argument(
        "--flight-capacity",
        type=int,
        default=4096,
        help="flight-recorder ring capacity (default 4096)",
    )
    dist_cmd.add_argument(
        "--json-out", help="write the runtime stats JSON here"
    )
    dist_cmd.add_argument(
        "--telemetry-interval",
        type=float,
        default=0.0,
        help="live telemetry push interval in seconds (default 0: "
        "telemetry plane off)",
    )
    dist_cmd.add_argument(
        "--telemetry-commits",
        type=int,
        default=0,
        help="also push a telemetry frame every N commits "
        "(default 0: time-driven cadence only — commit-driven "
        "frames scale with throughput and tax fast runs)",
    )
    dist_cmd.add_argument(
        "--live-out",
        help="stream telemetry frames and health events here as "
        "JSONL (needs --telemetry-interval)",
    )
    dist_cmd.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve merged metrics on http://127.0.0.1:PORT/metrics "
        "during the run (0 = ephemeral; needs --telemetry-interval)",
    )
    dist_cmd.add_argument(
        "--slow-clients",
        type=int,
        default=0,
        help="[load] inject stragglers: pace the first N clients "
        "(default 0)",
    )
    dist_cmd.add_argument(
        "--slow-pace",
        type=float,
        default=0.0,
        help="[load] extra sleep in seconds before each send on the "
        "slow clients (default 0)",
    )
    dist_cmd.add_argument(
        "--wire-format",
        default="full",
        metavar="full|delta",
        help="piggyback frame format, negotiated in the control "
        "header (default full): 'delta' sends differential frames "
        "per channel with periodic resyncs",
    )
    dist_cmd.set_defaults(handler=cmd_run_distributed)

    obs_cmd = commands.add_parser(
        "obs",
        help="run the threaded rendezvous demo with observability on "
        "(default), or 'report': merge BENCH_*.json into one bench-"
        "trajectory report with an optional regression gate",
    )
    obs_cmd.add_argument(
        "mode",
        nargs="?",
        default="run",
        choices=["run", "report", "timeline", "critpath", "top"],
        help="'run' (default): the instrumented rendezvous demo; "
        "'report': the bench-trajectory report; 'timeline': convert "
        "a flight record to Perfetto trace JSON; 'critpath': "
        "critical-path/slack profile of a flight record; 'top': "
        "live dashboard over a multiprocess load run",
    )
    obs_cmd.add_argument("--topology-file", help="topology JSON")
    obs_cmd.add_argument(
        "--family",
        default="ring:4",
        help="built-in family (default ring:4), e.g. complete:5, "
        "tree:3x4, client-server:2x10",
    )
    obs_cmd.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="rendezvous rounds over every channel (default 3)",
    )
    obs_cmd.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-rendezvous timeout in seconds (default 30)",
    )
    obs_cmd.add_argument(
        "--trace-out", help="write the span trace (JSONL) here"
    )
    obs_cmd.add_argument(
        "--metrics-out",
        help="write the metrics dump here (default: print to stdout)",
    )
    obs_cmd.add_argument(
        "--metrics-format",
        default="prometheus",
        choices=["prometheus", "json"],
    )
    obs_cmd.add_argument(
        "--trace-capacity",
        type=int,
        default=4096,
        help="span ring-buffer capacity (default 4096)",
    )
    obs_cmd.add_argument(
        "--flight-out",
        help="record a flight-recorder ring during the run and write "
        "it here as JSONL",
    )
    obs_cmd.add_argument(
        "--flight-capacity",
        type=int,
        default=4096,
        help="flight-recorder ring capacity (default 4096)",
    )
    obs_cmd.add_argument(
        "--audit-rate",
        type=float,
        default=0.0,
        help="live Theorem-4 audit sampling rate in [0, 1] "
        "(default 0: audit off)",
    )
    obs_cmd.add_argument(
        "--flight-in",
        help="[timeline/critpath] flight-record JSONL to analyze "
        "(from --flight-out)",
    )
    obs_cmd.add_argument(
        "--top-k",
        type=int,
        default=5,
        help="[critpath] bottleneck rendezvous to name (default 5)",
    )
    obs_cmd.add_argument(
        "--dir",
        default=".",
        help="[report] directory holding the BENCH_*.json snapshots "
        "(default: current directory)",
    )
    obs_cmd.add_argument(
        "--baseline",
        help="[report] normalized report JSON to gate against "
        "(generate with --report-format json)",
    )
    obs_cmd.add_argument(
        "--tolerance",
        type=float,
        default=0.1,
        help="[report] relative drift allowed by the regression gate "
        "(default 0.1 = 10%%)",
    )
    obs_cmd.add_argument(
        "--warn-only",
        action="store_true",
        help="[report] print gate failures but exit 0 (CI smoke mode)",
    )
    obs_cmd.add_argument(
        "--report-format",
        default="text",
        choices=["text", "markdown", "json"],
        help="[report/critpath] output format (default text; "
        "critpath supports text and markdown)",
    )
    obs_cmd.add_argument(
        "--out",
        help="[report/timeline/critpath] write the rendered output "
        "here instead of stdout",
    )
    obs_cmd.add_argument(
        "--servers",
        type=int,
        default=2,
        help="[top] server (hub) processes (default 2)",
    )
    obs_cmd.add_argument(
        "--clients",
        type=int,
        default=6,
        help="[top] client processes (default 6)",
    )
    obs_cmd.add_argument(
        "--messages",
        type=int,
        default=50,
        help="[top] messages per client (default 50)",
    )
    obs_cmd.add_argument(
        "--rate",
        type=float,
        default=40.0,
        help="[top] target aggregate msg/s (default 40; 0 unpaced)",
    )
    obs_cmd.add_argument(
        "--refresh",
        type=float,
        default=0.5,
        help="[top] dashboard repaint interval in seconds "
        "(default 0.5)",
    )
    obs_cmd.add_argument(
        "--slow-clients",
        type=int,
        default=0,
        help="[top] inject stragglers: pace the first N clients",
    )
    obs_cmd.add_argument(
        "--slow-pace",
        type=float,
        default=0.0,
        help="[top] extra sleep in seconds before each send on the "
        "slow clients",
    )
    obs_cmd.add_argument(
        "--live-out",
        help="[top] stream telemetry frames and health events here "
        "as JSONL",
    )
    obs_cmd.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="[top] serve merged metrics on "
        "http://127.0.0.1:PORT/metrics during the run "
        "(0 = ephemeral)",
    )
    obs_cmd.set_defaults(handler=cmd_obs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
