"""Exception types shared across the package."""


class SivMdcsError(Exception):
    """Base class for all package errors."""


# --- emitter / ensemble -------------------------------------------------

class SplittingCollapse(SivMdcsError):
    """A strain perturbation drove a fine-structure splitting to zero or below."""


class InvalidSpec(SivMdcsError):
    """Ensemble specification violates its invariants (weights, widths, ...)."""


# --- response synthesis -------------------------------------------------

class EmptyEnsemble(SivMdcsError):
    """Signal synthesis was asked to run with no emitters."""


class GridTooCoarse(SivMdcsError):
    """A time grid undersamples the largest detuning in the rotating frame."""


class AliasError(SivMdcsError):
    """Pulse-train sample rate is too low for the requested beat frequencies."""


class InsufficientRecord(SivMdcsError):
    """Record too short for the requested demodulation bandwidth."""


# --- spectral transforms ------------------------------------------------

class NonSquareGrid(SivMdcsError):
    """The tau = t diagonal requires a square grid with equal tau and t steps."""


# --- fitting --------------------------------------------------------------

class NoConvergence(SivMdcsError):
    """Optimizer failed to converge within the iteration budget."""


class NoHalfCrossing(SivMdcsError):
    """Peak is truncated; half-maximum crossings not bracketed by the trace."""


# --- config / datasets ----------------------------------------------------

class ConfigError(SivMdcsError):
    """Base class for configuration file errors."""

    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"[{field}] "
        super().__init__(prefix + message)


class ConfigSyntaxError(ConfigError):
    """Line could not be tokenized as section header or key = value."""


class SchemaError(ConfigError):
    """Unknown key, missing requirement, or value out of its allowed set."""


class UnitError(ConfigError):
    """Quantity carried a missing or dimensionally wrong unit suffix."""


class ChecksumMismatch(SivMdcsError):
    """Dataset payload does not match its trailing checksum."""


class VersionUnsupported(SivMdcsError):
    """Dataset format version is newer than this reader."""


class IoFailure(SivMdcsError):
    """Dataset file missing, truncated, or not in the expected format."""
