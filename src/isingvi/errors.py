"""The errors that the command line maps to exit codes, in one module that
needs only the standard library, so that the CLI can catch them without
loading numpy. Each is also importable from the module that raises it.
"""


class ModelError(ValueError):
    """Invalid model data (bad coupling sign, self-loop, duplicate edge, ...)."""


class DomainError(ValueError):
    """Function argument outside its mathematical domain (e.g. |x_i| > 1)."""


class ParseError(ValueError):
    """Text does not conform to its grammar; the message carries the line number."""


class SizeGuardError(RuntimeError):
    """Instance too large for an exact method; raise rather than thrash."""


class FeasibilityError(RuntimeError):
    """The feasible set is empty, or no feasible point was found within the
    step budget."""
