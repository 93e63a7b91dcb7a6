"""Exception types shared across the package.

Everything here is a flavour of bad input.  The command-line layer maps
any of these to exit code 3; library callers can catch the subclasses
they care about.
"""


class InputError(ValueError):
    """A caller-supplied value violates a precondition."""


class CapExceededError(InputError):
    """A construction or enumeration would exceed its configured size cap."""


class ParseError(InputError):
    """Malformed structure-description text."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(message)
        self.line = line
        self.column = column
