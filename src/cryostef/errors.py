"""Exception types shared across the solver stack."""


class CryostefError(Exception):
    """Base class for all cryostef errors."""


class DegenerateCalibration(CryostefError):
    """Envelope calibration hit a vanishing denominator."""


class InvalidBounds(CryostefError):
    """Constraint bounds are out of order or negative."""


class InfeasibleState(CryostefError):
    """A state violates the active constraint interval or envelope."""


class NonConvergence(CryostefError):
    """An iteration exhausted its budget before reaching tolerance."""

    def __init__(self, message, residual=None, report=None, step=None, t=None):
        super().__init__(message)
        self.residual = residual
        self.report = report
        self.step = step
        self.t = t


class SingularJacobian(CryostefError):
    """Tridiagonal factorization broke down; the SPD assumptions failed."""


class ConfigError(CryostefError):
    """Run configuration is malformed or inconsistent."""
