"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """A numerical precondition failed (grid too coarse, window too small, ...).

    The CLI maps these to exit code 3.  Plain ValueError means malformed or
    out-of-range input data and maps to exit code 2.  An error that measured
    a quantity against a limit carries ratio = measured / limit and the
    limit; the CLI reports both.  Otherwise both are None.  `_unless_below`
    raises when measured >= limit (the limit itself fails), `_unless_at_most`
    unless measured <= limit (the limit passes, a NaN fails); so the ratio is
    >= 1 when either raises, or NaN.
    """

    def __init__(self, message, ratio=None, limit=None):
        super().__init__(message)
        self.ratio = ratio
        self.limit = limit

    @classmethod
    def _unless_below(cls, message, measured, limit):
        if measured >= limit:
            raise cls(message, ratio=measured / limit, limit=limit)

    @classmethod
    def _unless_at_most(cls, message, measured, limit):
        if not measured <= limit:
            raise cls(message, ratio=measured / limit, limit=limit)


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
    """Too few events for the requested estimator (ratio 2/count, inf for none; limit 2, the least count)."""


class DegenerateStateError(PreconditionError):
    """The state has no usable statistics for the requested quantity."""


class AdmissibilityError(PreconditionError):
    """A cross-spectrum violates its regime's bound (ratio: worst |x|^2/bound over limit 1 + SATURATION_RTOL, at worst_omega in rad/ps)."""

    def __init__(self, message, ratio=None, limit=None, worst_omega=None):
        super().__init__(message, ratio, limit)
        self.worst_omega = worst_omega


class ParsevalError(PreconditionError):
    """A time transform did not keep the norm, so its kernel is broken (ratio |mass/expected - 1| / NORM_RTOL)."""
