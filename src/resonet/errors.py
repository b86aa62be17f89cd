"""Exception types, the memory budget and the trace-abort limit shared across the package."""

import math

# Bytes of large arrays one computation may hold; an input that needs more is
# rejected with ModelError before anything is allocated.
_BYTE_BUDGET = 2 * 1024**3

# Trace drift beyond this aborts a propagation or integration as numerically broken.
_TRACE_ABORT = 1e-6


def _sci(x: int) -> str:
    """Positive integer in three-digit scientific notation, also past the float range."""
    e = int(math.log10(x))
    return f"{x / 10**e:.2f}e{e}"


class ModelError(ValueError):
    """An input describes a physically or structurally invalid model."""


class NumericalError(RuntimeError):
    """A computation left its validated regime (divergence, lost trace, no convergence)."""


class ConfigError(ValueError):
    """A scenario configuration file is malformed or inconsistent."""
