"""Exception types shared across the package."""


class MechEffError(Exception):
    """Base class for all library errors."""


class NoRoot(MechEffError):
    """The reserve-price equation x*h(x) = 1 has no root on the support."""


class DomainError(MechEffError):
    """An argument lies outside the mathematical domain of the operation."""


class DegenerateConditioning(MechEffError):
    """The below-reserve event has vanishing probability; the conditional
    loss is 0 in the limit."""


class SearchExhausted(MechEffError):
    """A parameter scan hit its resolution floor without finding a witness."""


class NoConvergence(MechEffError):
    """An adaptive refinement outgrew its budget before meeting its tolerance."""
