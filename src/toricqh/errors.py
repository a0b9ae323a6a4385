"""Exception hierarchy shared by all modules."""


class ToricError(Exception):
    """Base class for every error raised by this package."""


class NonUnimodular(ToricError):
    """A matrix expected to be a lattice basis has determinant other than +-1."""


class DependentGenerators(ToricError):
    """Vectors expected to be linearly independent are not."""


class IndexOutOfRange(ToricError):
    """A ray or cone index falls outside the fan's range."""


class NotACone(ToricError):
    """An index set does not span a cone of the fan."""


class LocateFailure(ToricError):
    """A lattice point could not be located in any cone; the fan is not
    complete or its data is corrupt."""


class NotEffective(ToricError):
    """A curve class is not a nonnegative combination of primitive classes."""


class SearchBudgetExceeded(ToricError):
    """A bounded search ran out of its node budget before it decided the
    question; nothing follows about the input."""


class DimensionMismatch(ToricError):
    """Two fans live in lattices of different rank."""


class FanNotAccepted(ToricError):
    """An operation needs a validated fan but validation rejected it."""

    def __init__(self, report):
        super().__init__("fan rejected: " + "; ".join(report.problems))
        self.report = report


class BlowDownInvalid(ToricError):
    """A requested blow-down does not produce a valid fan."""


class NotFano(ToricError):
    """The fan fails the Fano inequality on some primitive relation."""


class NotInClass(ToricError):
    """The fan is outside the class these quantum formulas cover."""


class NotInTier(ToricError):
    """The fan sits below the tier an operation requires."""


class RingInconsistent(ToricError):
    """An internal consistency check failed: data computed along two routes
    disagree (shelling census against quotient dimension, a pinned basis
    monomial that the relations eliminate, a non-unimodular wall crossing)."""


class PreconditionFailed(ToricError):
    """A documented operation precondition does not hold for this input."""


class ExpressionError(ToricError):
    """A class expression or CLI argument could not be parsed."""
