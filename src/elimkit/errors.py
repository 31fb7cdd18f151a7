"""Exception types shared across the package.

Everything raised on purpose derives from ElimkitError so callers can catch
one base class at API boundaries (the CLI maps these onto exit codes).
"""


class ElimkitError(Exception):
    """Base class for all errors raised deliberately by this package."""


class RingMismatch(ElimkitError):
    """Two operands live in different coefficient rings."""


class WrongRing(ElimkitError):
    """The operation is defined, but not for this kind of ring."""


class UnsupportedRing(ElimkitError):
    """No sensible definition exists for this ring (e.g. content over Z/6Z)."""


class DivisionByZero(ElimkitError):
    """Division where the divisor is zero in the ring."""


class NotDivisible(ElimkitError):
    """An exact division failed.

    `witness` carries whatever made the division fail: a remainder, the
    offending term, or a short description.  Useful when a failed division
    falsifies an identity under test.
    """

    def __init__(self, msg="", witness=None):
        super().__init__(msg or "exact division failed")
        self.witness = witness


class NonHomogeneous(ElimkitError):
    """A polynomial expected to be homogeneous is not."""


class SignatureMismatch(ElimkitError):
    """Input system does not match the declared degree signature."""


class DegenerateSignature(ElimkitError):
    """The degree signature falls outside the regime where a formula holds."""


class DegreeTooLow(ElimkitError):
    """Hypersurface discriminant needs degree at least 2."""


class NotQuadratic(ElimkitError):
    """Quadric-only routine called on a form of degree != 2."""


class NotGeneric(ElimkitError):
    """Input must have fully generic (indeterminate) coefficients."""


class PerturbationDegenerate(ElimkitError):
    """More sample points of a perturbation failed than its denominator's degree allows."""


class IdentityFailed(ElimkitError):
    """An identity the theory guarantees did not hold on a computed value."""


class DeltaIsOne(ElimkitError):
    """gcd of the degrees is 1, so reduction modulo that gcd says nothing."""


class UnweightedSymbol(ElimkitError):
    """A weight valuation met a symbol the weight vector does not cover."""


class TooLarge(ElimkitError):
    """Fully generic computation refused; the estimated size is attached."""

    def __init__(self, msg="", estimate=None):
        super().__init__(msg or "generic computation too large")
        self.estimate = estimate


class UnknownSuite(ElimkitError):
    """Verification suite name not recognised."""
