"""Both runners reject a script whose peer is not a neighbour, up front.

A send target or a receive source that is not a process adjacent to
the script's owner used to fail late and differently in each runtime:
a ``KeyError`` and then a receive timeout, a ``ValueError`` from the
threaded sender's timeout path, a ``WireError`` out of the socket
runtime's ``run()`` despite ``raise_on_error=False``, or a full
timeout.  Now both runners raise :class:`SimulationError` naming the
owner, the action index and the peer before any thread or process
starts.
"""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.graphs.decomposition import decompose
from repro.graphs.generators import path_topology
from repro.sim.distributed import DistributedScriptRunner
from repro.sim.runtime import ScriptRunner, compute, receive, send

RUNNERS = [ScriptRunner, DistributedScriptRunner]

#: ``(scripts, owner, action index, peer)`` on ``path_topology(3)``,
#: whose edges are P1-P2 and P2-P3.
CASES = {
    "send-to-unknown": (
        {"P1": [send("ZZ")], "P2": [], "P3": []}, "P1", 0, "ZZ"
    ),
    "send-to-non-neighbour": (
        {"P1": [send("P3")], "P2": [], "P3": [receive("P1")]},
        "P1",
        0,
        "P3",
    ),
    "receive-from-unknown": (
        {"P1": [], "P2": [compute(), receive("ZZ")], "P3": []},
        "P2",
        1,
        "ZZ",
    ),
}


@pytest.mark.parametrize("runner", RUNNERS, ids=lambda r: r.__name__)
@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_peer_fails_before_the_run(runner, case):
    scripts, owner, index, peer = CASES[case]
    with pytest.raises(SimulationError) as info:
        runner(decompose(path_topology(3)), scripts, timeout=1.0)
    message = str(info.value)
    assert repr(owner) in message
    assert f"action {index}" in message
    assert repr(peer) in message

