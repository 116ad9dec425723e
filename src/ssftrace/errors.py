"""Exception types shared across the package."""


class SsftraceError(Exception):
    """Base class for all package-specific failures."""


class NotSquareError(SsftraceError):
    pass


class NotAContractionError(SsftraceError):
    pass


class InvalidDeltaError(SsftraceError):
    pass


class RequiresStrictContractionError(SsftraceError):
    pass


class NotPositiveContractionError(SsftraceError):
    pass


class SingularBError(SsftraceError):
    """Smallest eigenvalue of the second positive contraction is too close to zero."""


class NonRealResultError(SsftraceError):
    """A value that must be real carries an imaginary residual above tolerance."""


class InsufficientCoefficientsError(SsftraceError):
    pass


class InvalidRadiusError(SsftraceError):
    pass
