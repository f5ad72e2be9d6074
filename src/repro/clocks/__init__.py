"""Timestamping algorithms: the paper's clocks and the baselines."""

from repro.clocks.base import MessageTimestamper, TimestampAssignment
from repro.clocks.delta import (
    DeltaChannelCodec,
    FullVectorCodec,
    PiggybackCodec,
    make_codec,
)
from repro.clocks.dependency import DependencyTracer, DirectDependencyRecord
from repro.clocks.events import (
    EventTimestamp,
    EventTimestamper,
    event_precedes,
    events_concurrent,
    timestamp_internal_events,
)
from repro.clocks.fm import FMEventClock, FMMessageClock
from repro.clocks.lamport import LamportMessageClock
from repro.clocks.offline import (
    OfflineRealizerClock,
    offline_vector_size,
    theorem8_bound,
)
from repro.clocks.online import OnlineEdgeClock, OnlineProcessClock
from repro.clocks.plausible import PlausibleCombClock, ordering_accuracy
from repro.clocks.singhal_kshemkalyani import (
    SKDifferentialClock,
    TransmissionStats,
)

__all__ = [
    "DeltaChannelCodec",
    "FullVectorCodec",
    "PiggybackCodec",
    "PlausibleCombClock",
    "SKDifferentialClock",
    "TransmissionStats",
    "make_codec",
    "ordering_accuracy",
    "DependencyTracer",
    "DirectDependencyRecord",
    "EventTimestamp",
    "EventTimestamper",
    "FMEventClock",
    "FMMessageClock",
    "LamportMessageClock",
    "MessageTimestamper",
    "OfflineRealizerClock",
    "OnlineEdgeClock",
    "OnlineProcessClock",
    "TimestampAssignment",
    "event_precedes",
    "events_concurrent",
    "offline_vector_size",
    "theorem8_bound",
    "timestamp_internal_events",
]
