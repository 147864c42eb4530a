"""Exception types shared across the package.

The CLI maps these onto exit codes: bad input, failed preconditions
included, is a usage error (2); an exhausted search bound or an internal
inconsistency exits with 1, as obstructions do.
"""


class InputError(ValueError):
    """Arguments violate a documented precondition or invariant."""


class CompatibilityError(InputError):
    """Two otherwise-valid values do not fit together (shape/ring/overlap)."""


class PreconditionError(InputError):
    """A mathematical precondition fails for otherwise well-formed input."""


class ParseError(InputError):
    """Malformed textual input (group words, presentation files)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SearchBoundError(RuntimeError):
    """A bounded search ran out of budget; raising the bound may help."""


class ConsistencyError(RuntimeError):
    """Two internal computation paths disagree; never guess, always abort."""
