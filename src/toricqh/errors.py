"""Exception hierarchy shared by all modules."""


class ToricError(Exception):
    """Base class for every error raised by this package."""


class NonUnimodular(ToricError):
    """A matrix expected to be a lattice basis has determinant other than +-1."""


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


class NotInTier(ToricError):
    """The fan sits below the tier an operation requires."""


class NotInClass(NotInTier):
    """The fan is below FullClass, the class these quantum formulas cover.

    The quantum ring raises it where it is built, so every quantum product,
    GW invariant, Giambelli lift and rewrite refuses such a fan, whatever
    its operands; blow-downs refuse it too.
    """


class RingInconsistent(ToricError):
    """An internal consistency check failed: data computed along two routes
    disagree (shelling census against quotient dimension, a repeated or
    misplaced pinned basis face, a face that does not contain the basis
    face of its shelling interval or needs a face that is not in a later
    interval, a Fulton-Sturmfels relation that does not vanish on a ring
    table, a non-unimodular wall crossing, a closed form whose q^0 part is
    not its basis class)."""


class PreconditionFailed(ToricError):
    """A documented operation precondition does not hold for this input."""


class ExpressionError(ToricError):
    """A class expression or CLI argument could not be parsed."""
