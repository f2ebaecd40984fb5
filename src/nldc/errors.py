"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """A numerical precondition failed (grid too coarse, window too small, ...).

    The CLI maps these to exit code 3.  Plain ValueError means malformed or
    out-of-range input data and maps to exit code 2.  An error that measured
    a quantity against a limit carries ratio = measured / limit (>= 1 when
    raised) and the limit the measured quantity must stay below; the CLI
    reports both.  Otherwise both are None.
    """

    def __init__(self, message, ratio=None, limit=None):
        super().__init__(message)
        self.ratio = ratio
        self.limit = limit


class GridMismatchError(PreconditionError):
    """Two objects that must share a frequency grid do not."""


class GridTooCoarseError(PreconditionError):
    """The grid spacing cannot resolve a requested spectral or temporal width."""


class GridTooNarrowError(PreconditionError):
    """The grid span does not cover a requested spectral width."""


class MemoryBudgetError(PreconditionError):
    """A run's estimated peak memory exceeds the budget (limit in bytes)."""


class WindowTooSmallError(PreconditionError):
    """The shutter window is too short relative to the correlation width (ratio 6*rms/T, limit T in ps)."""


class BatchTooSmallError(PreconditionError):
    """Too few events for the requested estimator."""


class DegenerateStateError(PreconditionError):
    """The state has no usable statistics for the requested quantity."""


class AdmissibilityError(PreconditionError):
    """A cross-spectrum violates its regime's bound (ratio: worst |x|^2/bound over limit 1 + SATURATION_RTOL)."""


class ParsevalError(PreconditionError):
    """A time transform did not preserve the norm: the Fourier kernel is broken."""
