"""Exception types shared across the package."""


class DegenerateParameter(ValueError):
    """Kernel parameter b sits on the singular surface 6.0*b - 1.0 == 0.0, or is not finite."""


class NonFiniteState(ArithmeticError):
    """A flow produced NaN or Inf entries in the phase-space state."""


class InsufficientSteps(ValueError):
    """A leg needs one step, or two when a kernel step is folded into its preprocessor."""


class NoDescent(RuntimeError):
    """Tuner was seeded at a point with non-finite objective."""
