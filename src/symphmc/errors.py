"""Exception types shared across the package."""


class DegenerateParameter(ValueError):
    """Kernel parameter sits on the singular surface 6b - 1 = 0."""


class NonFiniteState(ArithmeticError):
    """A flow produced NaN or Inf entries in the phase-space state."""


class InsufficientSteps(ValueError):
    """A leg needs one step, or two when a kernel step is folded into its preprocessor."""


class NoDescent(RuntimeError):
    """Tuner was seeded at a point with non-finite objective."""
