"""Exception taxonomy. Every domain error carries a stable machine-readable code."""

from __future__ import annotations


class SnfcError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


# -- field / matrix ----------------------------------------------------------

class NonPrime(SnfcError):
    pass


class DegreeZero(SnfcError):
    pass


class DivideByZero(SnfcError):
    pass


class FieldMismatch(SnfcError):
    pass


class Singular(SnfcError):
    pass


class DimensionMismatch(SnfcError):
    pass


class PrimeFieldInput(SnfcError):
    pass


# -- network -----------------------------------------------------------------

class MalformedInput(SnfcError):
    pass


class Cycle(SnfcError):
    pass


class SourceHasInEdge(SnfcError):
    pass


class SinkHasOutEdge(SnfcError):
    pass


class UnreachableSink(SnfcError):
    pass


class UnknownNode(SnfcError):
    pass


class UnknownEdge(SnfcError):
    pass


class AllZeroFunction(SnfcError):
    pass


class ValidationFailure(SnfcError):
    pass


# -- cuts --------------------------------------------------------------------

class TargetInU(SnfcError):
    pass


class EmptyTarget(SnfcError):
    pass


# -- bounds / verification ---------------------------------------------------

class TooLarge(SnfcError):
    pass


class ShapeMismatch(SnfcError):
    pass


class NegativeSecurityLevel(SnfcError):
    pass


class InvariantViolated(SnfcError):
    """An internal consistency check failed; the result would be wrong."""


# -- construction ------------------------------------------------------------

class RateExceedsMinCut(SnfcError):
    pass


class FieldTooSmallForMulticast(SnfcError):
    pass


class FieldTooSmall(SnfcError):
    pass


class ReversalInconsistent(SnfcError):
    pass


class SingularB(SnfcError):
    pass


class RateInfeasible(SnfcError):
    pass


class ConstructionFailed(SnfcError):
    pass
