"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError -> 2, GuardError and its
subclasses -> 3.
"""

from operator import index


class InputError(ValueError):
    """Malformed or out-of-contract user input (files, counts, flags)."""


class GuardError(RuntimeError):
    """A structural size guard was exceeded (pattern too large, etc.)."""


class BudgetError(GuardError):
    """A configured memory/work budget was exceeded."""


class CliqueCapError(GuardError):
    """The per-run cap on emitted cliques was exceeded."""

    def __init__(self, cap: int):
        super().__init__(f"clique listing exceeded the configured cap of {cap} cliques")
        self.cap = cap


def _integer(value, name: str) -> int:
    """value as an int, numpy integers included; anything else, a boolean
    too, raises InputError."""
    try:
        if not isinstance(value, bool):
            return index(value)
    except TypeError:
        pass
    raise InputError(f"{name} must be an integer, got {value!r}")
