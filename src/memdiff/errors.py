"""Exception types shared across the library."""


class MemdiffError(Exception):
    """Base class for all library errors."""


class DomainError(MemdiffError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class HypothesisViolation(MemdiffError, RuntimeError):
    """A kernel or parameter fails a hypothesis required by the requested
    computation.  ``reason`` names the violated condition."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class NotEventuallyPositiveError(MemdiffError, RuntimeError):
    """The integrated kernel is not positive on the sampled tail, so no
    regular-variation index can be extracted."""


class StepSizeError(MemdiffError, RuntimeError):
    """The time grid is too coarse: the implicit coefficient of a step is
    not positive, or the solution for a positive-definite kernel left the
    bound |z| <= 1.  Refine the time grid."""


class PrecisionLossError(MemdiffError, RuntimeError):
    """A solved row grew so far that rounding at its largest values swamps
    the smaller values asked for.  Refining the time grid does not cure
    it: the row's own growth sets the lost precision."""


class ConfigError(MemdiffError, ValueError):
    """One or more problems in a run configuration.  ``problems`` is the
    full list of (line_number, message) pairs."""

    def __init__(self, problems):
        self.problems = list(problems)
        msg = "; ".join(f"line {ln}: {m}" if ln else m for ln, m in self.problems)
        super().__init__(msg)
