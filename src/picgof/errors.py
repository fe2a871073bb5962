"""The two exception types of the package, one per command line exit code.

:class:`CensoringError`, a ``ValueError``, is any data or parameter error:
an invalid design, sample, model, table or run parameter (exit code 2).
Its subclass :class:`FamilySyntaxError` is a malformed family spec, a usage
error (exit code 1).
"""


class CensoringError(ValueError):
    """Invalid data or parameters; the command line exits with code 2."""


class FamilySyntaxError(CensoringError):
    """A family spec string is malformed: unknown kind or missing parameter (exit code 1)."""
