"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid experiment configuration; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class CapExceededError(RuntimeError):
    """Exact-chain work per step or a materialization would exceed its cap."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class UnstableSystemError(RuntimeError):
    """Linear system with spectral radius >= 1, or whose trajectory overflows (radius None)."""

    def __init__(self, radius: float | None, message: str | None = None):
        super().__init__(message or f"spectral radius {radius:.6g} >= 1; equilibrium not computed")
        self.radius = radius
