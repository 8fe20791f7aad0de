"""Exception types shared across the library."""

from __future__ import annotations


class CrossedCatError(Exception):
    """Base class for all library errors."""


class GroupValidationError(CrossedCatError):
    """A Cayley table fails one of the group laws."""


class NoIdentity(GroupValidationError):
    def __init__(self, identity: int, a: int):
        self.witness = (identity, a)
        super().__init__(f"element {identity} is not an identity (fails at {a})")


class AssocViolation(GroupValidationError):
    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(f"associativity fails at (a,b,c)=({a},{b},{c})")


class NoInverse(GroupValidationError):
    def __init__(self, a: int):
        self.witness = (a,)
        super().__init__(f"element {a} has no two-sided inverse")


class MalformedTable(GroupValidationError):
    """Ragged table or out-of-range entry."""


class NotMatched(CrossedCatError):
    """A matched-pair precondition failed; carries the offending report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"matched-pair verification failed: {report.first_failure()}")


class NotExact(CrossedCatError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"not an exact factorization: {reason}")


class ValidationError(CrossedCatError):
    """A loaded object or a command-line argument is malformed, or an input fails
    verification."""


class ParseError(CrossedCatError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (column {position})")


class NonSingularityViolated(CrossedCatError):
    def __init__(self, missing_degree: int):
        self.missing_degree = missing_degree
        super().__init__(f"grading not surjective: no simple of degree {missing_degree}")


class CenterTooLarge(CrossedCatError):
    def __init__(self, search: str, tries: int, limit: int):
        self.tries = tries
        super().__init__(f"center too large to enumerate: {search} would try {tries} "
                         f"candidates, over the limit of {limit}")


class UnsupportedConfiguration(CrossedCatError):
    """A center simple's retract idempotent is not the identity, so the
    Gamma-action is undefined on it (a corrupted simple list)."""
