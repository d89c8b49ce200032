"""Exception types shared across the toolkit."""


class PresistanceError(Exception):
    """Base class for all toolkit errors."""


class GraphError(PresistanceError):
    pass


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class NonPositiveWeight(GraphError):
    pass


class Disconnected(GraphError):
    """Raised when a graph is not connected; carries the components."""

    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        super().__init__(
            "graph is not connected; components: "
            + ", ".join("{" + ",".join(map(str, c)) + "}" for c in self.components)
        )


class InvalidParams(PresistanceError):
    pass


def check_seed(seed):
    """`seed` unless it is below 0, which numpy's generators reject with a
    bare ValueError: then `InvalidParams`. None (fresh entropy) passes."""
    if seed is not None and seed < 0:
        raise InvalidParams(f"seed must be at least 0, got {seed}")
    return seed


def check_distinct(name, values):
    """`values` as a tuple unless one of them repeats, which would run its
    work and write its records twice: then `InvalidParams`."""
    values = tuple(values)
    if len(set(values)) < len(values):
        raise InvalidParams(f"{name} repeats a value: {', '.join(map(str, values))}")
    return values


class DimensionMismatch(PresistanceError):
    pass


class NonFinite(PresistanceError):
    pass


class InvalidP(PresistanceError):
    pass


class SingularShift(PresistanceError):
    """Pseudoinverse computation broke down on both solve routes."""


class FingerprintMismatch(PresistanceError):
    pass


class InvalidK(PresistanceError):
    pass


class LengthMismatch(PresistanceError):
    pass


class EigenFailure(PresistanceError):
    pass


class ParseError(PresistanceError):
    pass


class RaggedRows(ParseError):
    pass


class NonNumericFeature(ParseError):
    pass


class DegenerateKernel(PresistanceError):
    pass
