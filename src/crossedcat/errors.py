"""Exception types shared across the library, one per way a caller handles
a failure: the CLI exits 2 on ValidationError (and on any other
CrossedCatError) and reports a GroupValidationError's witness under
`verify group`.  Any other exception is a program error, which the CLI
exits 3 on.  A failed axiom is never an exception to the CLI: a command
returns exit 1 with the report it printed."""

from __future__ import annotations


class CrossedCatError(Exception):
    """Base class for all library errors."""


class ValidationError(CrossedCatError):
    """An input the library cannot use: a malformed object or command-line
    argument, an input over a size bound, a failed precondition (a grading
    that is not surjective, subgroups that do not factor a group exactly,
    a section that does not split the grading), a simple list passed to
    the center that it does not close, or an input that fails verification
    where a valid one is required."""


class GroupValidationError(CrossedCatError):
    """A Cayley table fails one of the group laws; `.witness` is where."""

    def __init__(self, message: str, witness: tuple):
        self.witness = witness
        super().__init__(message)

