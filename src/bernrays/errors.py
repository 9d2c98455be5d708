"""Exception hierarchy for the bernrays package.

Every error raised by the library derives from :class:`BernraysError`,
so callers can catch one base class. Errors that signal invalid caller
input additionally derive from :class:`ValueError`.
"""


class BernraysError(Exception):
    """Base class for all bernrays errors."""


class InvalidSpec(BernraysError, ValueError):
    """A class spec or query parameter is out of range (d, p, rho, alpha)."""


class NegativeMass(BernraysError, ValueError):
    """A probability entry is below the negativity tolerance."""


class NotNormalized(BernraysError, ValueError):
    """Probabilities do not sum to one within tolerance."""


class LengthMismatch(BernraysError, ValueError):
    """A probability vector has the wrong length for its dimension."""


class Overflow(BernraysError, ArithmeticError):
    """An intermediate quantity left the representable floating range."""


class OrderOutOfRange(BernraysError, ValueError):
    """A moment order outside 1..d was requested."""


class DegenerateMarginal(BernraysError, ValueError):
    """Correlation is undefined because the marginal p is 0 or 1."""


class EmptyTail(BernraysError):
    """Internal: an expected-shortfall tail carries no mass."""


class IndexOutOfRange(BernraysError, ValueError):
    """A support index lies outside {0, ..., d} or violates ordering."""


class NonIntegerMean(BernraysError, ValueError):
    """A point ray was requested but the mean count is not an integer."""


class MeanMismatch(BernraysError, ValueError):
    """A pmf does not have the mean required by the class."""


class InfeasibleMoment(BernraysError, ValueError):
    """The target second cross moment lies outside the attainable range."""


class EmptyRaySet(BernraysError, ValueError):
    """A risk scan was invoked on an empty ray collection."""


class InadmissibleCorrelation(BernraysError, ValueError):
    """Beta-mixture calibration requires correlation strictly inside (0, 1)."""


class ClassTooLarge(BernraysError, ValueError):
    """Enumerating the class would need more working memory than allowed."""
