"""Exception types shared across the library.

``DomainError`` covers violated mathematical preconditions (the CLI maps it
to exit code 2); ``ParseError`` covers malformed input text (exit code 1).
"""

from __future__ import annotations


class DomainError(Exception):
    """A precondition on the mathematical input is violated."""


class ParseError(Exception):
    """Malformed input text, with the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class UnknownVertexError(DomainError):
    def __init__(self, label):
        super().__init__(f"unknown vertex label {label!r}")
        self.label = label


class EmptyComplexError(DomainError):
    def __init__(self, message="operation requires a nonempty complex"):
        super().__init__(message)


class NotSimplicialError(DomainError):
    def __init__(self, face):
        super().__init__(f"image of face {face} is not a face of the target complex")
        self.face = tuple(face)


class EmptyRelationError(DomainError):
    def __init__(self, message="relation has no pairs"):
        super().__init__(message)


class NotCoveredError(DomainError):
    def __init__(self, label):
        super().__init__(f"relation is not covered: {label!r} is related to nothing")
        self.label = label


class UniverseMismatchError(DomainError):
    def __init__(self, message="relations do not share a vertex universe"):
        super().__init__(message)


class AmbiguousLabelError(DomainError):
    def __init__(self, label, reserved="',', '(' or ')'", joined="pair labels"):
        super().__init__(f"label {label!r} contains {reserved}, so {joined} would not be unique")
        self.label = label


class CycleDetectedError(DomainError):
    def __init__(self, cycle):
        super().__init__(f"order pairs close into a cycle: {' <= '.join(cycle)}")
        self.cycle = tuple(cycle)


class NotT0Error(DomainError):
    def __init__(self, pair):
        a, b = pair
        super().__init__(f"space is not T0: {a!r} and {b!r} have the same minimal open set")
        self.pair = (a, b)


class InvalidTopologyError(DomainError):
    """A family of sets that is not a topology: its message says which condition fails."""


class EmptyResultError(DomainError):
    def __init__(self, message="strict complexes of a discrete poset are empty"):
        super().__init__(message)


class NotRealizableError(DomainError):
    def __init__(self, facet):
        super().__init__(
            f"facet {facet} has no private vertex, so no poset has this K-complex"
        )
        self.facet = tuple(facet)


class NotFreeError(DomainError):
    def __init__(self, face, cofaces, index=None):
        at = "" if index is None else f"step {index}: "
        if cofaces is None:
            detail = "it is not a face of the complex"
        else:
            detail = f"it has {len(cofaces)} proper cofaces: {list(cofaces)}"
        super().__init__(f"{at}face {face} is not free: {detail}")
        self.face = tuple(face)
        self.cofaces = None if cofaces is None else tuple(cofaces)
        self.index = index


class SingletonComponentError(DomainError):
    def __init__(self, element):
        super().__init__(f"poset has a singleton component: {element!r}")
        self.element = element


class EmptyFiberError(DomainError):
    def __init__(self, element):
        super().__init__(f"fiber of {element!r} is empty")
        self.element = element


class NotClosedError(DomainError):
    def __init__(self, lower, upper):
        super().__init__(
            f"relation is not closed: contains {lower} but not {upper} above it"
        )
        self.lower = lower
        self.upper = upper


class TooManyFacesError(DomainError):
    def __init__(self, faces, limit):
        super().__init__(f"the complex would have at least {faces} faces, more than the limit of {limit}")
        self.faces = faces
        self.limit = limit


class TooManyOpensError(DomainError):
    def __init__(self, opens, limit):
        super().__init__(f"the topology would have at least {opens} open sets, more than the limit of {limit}")
        self.opens = opens
        self.limit = limit
