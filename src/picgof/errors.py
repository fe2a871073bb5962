"""Exception types raised by validation and computation routines.

All inherit from :class:`CensoringError`, itself a ``ValueError``, so callers
can catch everything package-specific with one clause while plain ``except
ValueError`` code keeps working.
"""


class CensoringError(ValueError):
    """Base class for all errors raised by this package."""


class NonIncreasingTimes(CensoringError):
    """Inspection times are not strictly increasing."""


class FirstTimeNotZero(CensoringError):
    """The time vector does not start at 0."""


class PercentageOutOfRange(CensoringError):
    """A withdrawal percentage lies outside [0, 1]."""


class LastPercentageNotOne(CensoringError):
    """The final withdrawal percentage is not exactly 1."""


class LengthMismatch(CensoringError):
    """Vector lengths are inconsistent with the design."""


class InvalidSample(CensoringError):
    """Failure/removal counts are impossible under their scheme."""


class NonMonotoneCdf(CensoringError):
    """A supplied CDF decreases between inspection times."""


class InvalidN(CensoringError):
    """The sample size is not a positive integer."""


class DegenerateRiskSet(CensoringError):
    """Failures reported in an interval that no unit entered."""


class EmptyDeviationVector(CensoringError):
    """No deviations to summarize."""


class SchemeMismatch(CensoringError):
    """A critical value table does not match the scheme or sample size in use."""


class ParameterOutOfDomain(CensoringError):
    """A model, design or run parameter lies outside its domain."""


class FamilySyntaxError(ParameterOutOfDomain):
    """A family spec string is malformed: unknown kind or missing parameter."""


class FlatCdfAcrossInspections(CensoringError):
    """A hypothesized CDF assigns the same value to two inspection times."""
