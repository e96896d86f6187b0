"""Exception types shared across the toolkit."""

from __future__ import annotations


class StarchromeError(Exception):
    """Base class for all toolkit errors."""


class OutOfRange(StarchromeError):
    """An id or parameter falls outside its permitted range."""


class SelfLoop(StarchromeError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(StarchromeError):
    """The same unordered pair appears twice in an edge list."""


class TooLarge(StarchromeError):
    """Input exceeds the configured size limit of an operation."""


class PartialColoring(StarchromeError):
    """A coloring leaves some edge without a positive color id."""


class BadParams(StarchromeError):
    """Family parameters outside the builder's declared range."""


class PostconditionFailed(StarchromeError):
    """A built object violates one of its declared structural invariants."""


class UnknownFigure(StarchromeError):
    """Requested figure id is not in the catalog."""


class MalformedText(StarchromeError):
    """A serialized graph or table cannot be parsed."""


class BudgetExhausted(StarchromeError):
    """The exact solver ran out of nodes or time.

    Carries the best known bounds on the star chromatic index at the
    moment the budget ran out, and the palette rounds run (the last one
    ran out).
    """

    def __init__(self, lower_bound: int, upper_bound: int, nodes: int, elapsed: float, rounds=()):
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.nodes = nodes
        self.elapsed = elapsed
        self.rounds = rounds
        super().__init__(
            f"budget exhausted after {nodes} nodes / {elapsed:.1f}s; "
            f"chi_star in [{lower_bound}, {upper_bound}]"
        )

    def __reduce__(self):
        # Exception pickles only the message; rebuild from the fields instead.
        args = (self.lower_bound, self.upper_bound, self.nodes, self.elapsed, self.rounds)
        return type(self), args
