"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """A numerical precondition failed (grid too coarse, window too small, ...).

    The CLI maps these to exit code 3.  Plain ValueError means malformed or
    out-of-range input data and maps to exit code 2.
    """


class GridMismatchError(PreconditionError):
    """Two objects that must share a frequency grid do not."""


class _LimitError(PreconditionError):
    """A measured quantity reached its limit.

    ratio is measured / limit (>= 1 when raised) and limit is the bound the
    measured quantity must stay below; the CLI reports both.
    """

    def __init__(self, message, ratio=None, limit=None):
        super().__init__(message)
        self.ratio = ratio
        self.limit = limit


class GridTooCoarseError(_LimitError):
    """The grid spacing cannot resolve a requested spectral or temporal width."""


class GridTooNarrowError(_LimitError):
    """The grid span does not cover a requested spectral width."""


class MemoryBudgetError(_LimitError):
    """A run's estimated peak memory exceeds the budget (limit in bytes)."""


class WindowTooSmallError(PreconditionError):
    """The shutter window is too short relative to the correlation width."""


class BatchTooSmallError(PreconditionError):
    """Too few events for the requested estimator."""


class DegenerateStateError(PreconditionError):
    """The state has no usable statistics for the requested quantity."""


class AdmissibilityError(PreconditionError):
    """A cross-spectrum violates the admissibility bound of its declared regime."""


class ParsevalError(PreconditionError):
    """A time transform did not preserve the norm: the Fourier kernel is broken."""
