"""Exception types shared across the engines."""


class UnsupportedSizeError(ValueError):
    """Relay count exceeds what the closed-form engines accept.

    Analytic max-e and max-mrc enumerate the sub-multisets of the
    eavesdropper rates: up to 2^N - 1 of them when every rate differs. The
    analytic and quadrature engines share a cap of N = 8
    (`model.MAX_RELAYS`, checked by `model.require_supported`), although
    only those two closed forms enumerate subsets. The Monte Carlo engine
    has no cap.
    """


class SpecValidationError(ValueError):
    """Sweep spec, config or settings problems, with one message per violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConvergenceError(RuntimeError):
    """An engine could not reach the accuracy it requires.

    Raised by adaptive quadrature that misses its requested tolerance, and
    by a closed-form sum whose total stays within its rounding-error bound
    after every precision escalation round. Carries the best available
    estimate and its error bound.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class SlopeUndefinedError(ArithmeticError):
    """Outage probability underflowed to zero; the log-log slope is undefined."""
