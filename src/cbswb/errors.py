"""Errors raised by the workbench.

Three families: malformed input documents, semantically invalid inputs,
and computations that would exceed a configured budget.  The CLI maps all
three to exit status 2; refuted mathematical properties are not errors.
"""


class CbswbError(Exception):
    pass


class FormatError(CbswbError):
    """An input document (JSON algebra, term text, set literal) cannot be parsed."""


class ValidationError(CbswbError):
    """A well-formed input violates a precondition (not a partition, parent
    mismatch, not a congruence, not an isomorphism, and so on)."""


class BudgetError(CbswbError):
    """The requested computation exceeds the configured size or evaluation budget."""


def over_budget(stage: str, what: str, count: int, cap: int, unit: str) -> BudgetError:
    """The one BudgetError shape: the stage, the count it reached, the cap.

    Callers compare count with cap themselves and build the error only once
    it is over, so nothing runs below a cap; over_budget("truncation", "m",
    65, 64, "coordinate") reads "truncation: m reached 65, over the
    64-coordinate budget".
    """
    return BudgetError(f"{stage}: {what} reached {count}, over the {cap}-{unit} budget")
