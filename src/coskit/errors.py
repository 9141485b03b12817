"""Exception hierarchy shared by all coskit modules."""


class CosKitError(Exception):
    """Base class for all coskit failures."""


class ModelParameterError(CosKitError, ValueError):
    """Model or market parameters violate their admissible range."""


class MomentDoesNotExist(CosKitError):
    """Requested moment is infinite (heavy-tailed law)."""


class NoClosedForm(CosKitError):
    """No closed-form derivative bound for this model; use the numeric route."""


class IntegralDiverged(CosKitError):
    """Derivative-bound integral does not converge (density too rough)."""


class QuadratureFailure(CosKitError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NoSmoothness(CosKitError):
    """Density is not smooth enough for the series-length selection rule."""


class ToleranceTooLoose(CosKitError):
    """Requested tolerance is too loose for the selection rule's validity
    conditions; the computed range does not reach the tail-bound regime."""


class NotReachedWithinCap(CosKitError):
    """Search exhausted its budget without meeting the target."""


class NonFinitePrice(CosKitError):
    """The COS sum came out nan or infinite (phi overflowed far out)."""


class ReferenceUnavailable(CosKitError):
    """No reference price available for the requested experiment."""


class DampingInadmissible(CosKitError):
    """Damped moment E[S_T^(1+damping)] is infinite for this model."""
