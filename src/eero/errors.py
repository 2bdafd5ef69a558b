"""Exception types raised by the library.

Every rejected input maps to exactly one of these, so callers (and the
command line front end) can branch on the failure class instead of
parsing messages.  Each class declares the process exit code the
command line reports for it: 2 invalid argument or spec, 3 unreadable
or invalid data (the default), 4 infeasible budget, 5 policy/bank or
label mismatch.
"""


class EeroError(Exception):
    """Base class for all library-specific failures."""

    exit_code = 3


class ShapeMismatch(EeroError):
    """Array dimensions disagree across heads or with declared sizes."""


class NonIncreasingBudgets(EeroError):
    """Per-head budgets must be positive and strictly increasing."""


class RowNotNormalized(EeroError):
    """A probability row is not finite, non-negative and summing to one."""


class EmptyCalibration(EeroError):
    """No calibration scores to build an empirical distribution from."""


class NotOnSimplex(EeroError):
    """A weight vector has negative mass or does not sum to one."""


class InfeasibleBudget(EeroError):
    """The budget cannot be met even by the cheapest head everywhere."""

    exit_code = 4


class HeadCountMismatch(EeroError):
    """A policy or allocation was built for a different number of heads."""

    exit_code = 5


class LabelLengthMismatch(EeroError):
    """Label vector length differs from the number of instances."""

    exit_code = 5


class MissingLabels(EeroError):
    """An operation that needs ground-truth labels was given none."""


class ParseError(EeroError):
    """A data file is malformed; carries file, row and column context."""

    def __init__(self, message, *, file=None, row=None, col=None):
        self.file = file
        self.row = row
        self.col = col
        where = ""
        if file is not None:
            where = f" [{file}"
            if row is not None:
                where += f", row {row}"
            if col is not None:
                where += f", col {col}"
            where += "]"
        super().__init__(f"{message}{where}")


class InvalidSpec(EeroError, ValueError):
    """A generator or configuration record fails its own constraints.

    Also a ValueError, so callers that catch ValueError from the
    validators keep working.
    """

    exit_code = 2
