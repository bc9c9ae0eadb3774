"""Exception types raised across the package."""


class RoundFairError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RoundFairError, ValueError):
    """Invalid instance, allocation, or parameter data."""


class EmptyInstance(ValidationError):
    """Instance has no rounds or no agents."""


class NegativeValue(ValidationError):
    """A valuation entry is negative."""

    def __init__(self, round_index: int, agent: int, value: float):
        self.round_index = round_index
        self.agent = agent
        self.value = value
        super().__init__(
            f"negative value {value!r} at round {round_index}, agent {agent}"
        )


class NotNormalized(ValidationError):
    """An agent's values do not sum to 1."""

    def __init__(self, agent: int, total: float):
        self.agent = agent
        self.total = total
        super().__init__(f"agent {agent} values sum to {total!r}, expected 1")


class OutOfRange(ValidationError):
    """A numeric parameter is outside its admissible range."""


class ShapeMismatch(ValidationError):
    """Instance and allocation shapes differ."""


class DimensionMismatch(ValidationError):
    """State vectors are empty, not 1-d, or of different lengths."""


class NotTwoAgents(ValidationError):
    """Operation is defined for two-agent instances only."""


class InfiniteP(ValidationError):
    """The guarded family requires a finite exponent."""


class PNotAboveTwo(ValidationError):
    """The fair-share violation construction needs p > 2."""


class NotPerfectSquare(ValidationError):
    """The multi-agent construction needs a perfect-square agent count."""


class DomainError(RoundFairError, ValueError):
    """A closed-form ratio was evaluated outside its domain."""


class InfeasibleClosedForm(DomainError):
    """Derived round values came out negative; no instance realizes the point."""


class EmptyDomain(RoundFairError, ValueError):
    """A search domain contains no feasible grid point."""


class InstanceSyntaxError(RoundFairError, ValueError):
    """Malformed instance or allocation document."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
