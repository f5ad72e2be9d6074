"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one base class.  The subclasses
mirror the layers of the system: graph/topology problems, poset problems,
simulation problems, and clock/timestamping problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """A structural problem with an undirected graph or topology."""


class EdgeNotFoundError(GraphError):
    """An operation referenced an edge that is not present in the graph."""


class VertexNotFoundError(GraphError):
    """An operation referenced a vertex that is not present in the graph."""


class DecompositionError(GraphError):
    """An edge decomposition is malformed.

    Raised when a proposed partition of the edge set violates
    Definition 2 of the paper: groups must be pairwise disjoint, cover
    every edge exactly once, and each group must be a star or a triangle.
    """


class PosetError(ReproError):
    """A structural problem with a partially ordered set."""


class NotAPartialOrderError(PosetError):
    """The supplied relation is not irreflexive/antisymmetric/acyclic."""


class NotALinearExtensionError(PosetError):
    """A sequence claimed to be a linear extension is not one."""


class SimulationError(ReproError):
    """A problem while building or executing a synchronous computation."""


class InvalidComputationError(SimulationError):
    """A synchronous computation violates the model of Section 2.

    For example: a message between processes that are not neighbours in
    the communication topology, or a process name outside the system.
    """


class RuntimeDeadlockError(SimulationError):
    """The threaded rendezvous runtime detected that no progress is possible."""


class ClockError(ReproError):
    """A problem while assigning or comparing timestamps."""


class UnknownMessageError(ClockError):
    """A timestamp was requested for a message the clock has not seen."""


class EncodingViolationError(ClockError):
    """A timestamp assignment failed to encode the message order.

    Carries the offending pair of messages so test harnesses can print a
    minimal counterexample.
    """

    def __init__(self, message: str, pair: tuple = ()):  # noqa: D401
        super().__init__(message)
        self.pair = pair
