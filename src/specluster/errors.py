"""Exception types shared across the package.

InputError maps to CLI exit code 2 (usage / bad input); everything else
derived from SpeclusterError maps to exit code 1.
"""


class SpeclusterError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SpeclusterError):
    """Invalid user input: bad parameters, malformed files, id violations."""


class GraphFormatError(InputError):
    """Malformed graph/label/points file; message carries the line number."""


class UndefinedConductanceError(InputError):
    """Conductance requested for an empty set or the full vertex set."""


class RankDeficiencyError(SpeclusterError):
    """Orthonormalization found numerically dependent columns."""
