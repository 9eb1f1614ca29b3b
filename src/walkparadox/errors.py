"""Exception types shared across the package."""


class WalkParadoxError(Exception):
    """Base class for every error raised by this package."""


class GraphError(WalkParadoxError, ValueError):
    """Invalid graph construction, parse failure, or graph/operation mismatch."""


class ParameterError(WalkParadoxError, ValueError):
    """A parameter lies outside its admissible range."""


class ConvergenceError(WalkParadoxError, RuntimeError):
    """An iterative solver ran out of iterations.

    Carries the last residual and, when available, the best iterate so a
    caller can inspect how close the run got.
    """

    def __init__(self, message, residual=None, best=None):
        super().__init__(message)
        self.residual = residual
        self.best = best


class TheoremViolationError(WalkParadoxError, RuntimeError):
    """A mathematically guaranteed inequality failed.

    This is never a finding about the input graph: it means the
    implementation itself is wrong, so it is raised loudly instead of
    being returned as a report.  The offending graph is attached as an
    edge-list dump for replay.
    """

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump

    @classmethod
    def on(cls, message, g, **facts):
        """The violation on g; build(n, edges, directed) replays its dump."""
        return cls(message, dump={"edges": g.edges(), "n": g.n, "directed": g.directed, **facts})
