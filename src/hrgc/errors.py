"""Exception types shared across the package."""


class HrgcError(Exception):
    """Base class for all library errors."""


class UnsupportedQ(HrgcError):
    """q is not a supported prime power (must be one of 2,3,4,5,7,8,9,11,13,16)."""


class DivisionByZero(HrgcError, ZeroDivisionError):
    pass


class InvalidM(HrgcError):
    """Code degree parameter m below the minimum q^2 - 1."""


class InvalidAlpha(HrgcError):
    pass


class InvalidK(HrgcError):
    pass


class InvalidParams(HrgcError):
    pass


class LambdaSearchFailed(HrgcError):
    """No coefficient polynomial of a layer met the fibre rule and the
    window rule within the draw budget."""


class LengthMismatch(HrgcError):
    pass


class NotEnoughHelpers(HrgcError):
    pass


class SingularSystem(HrgcError):
    """A linear system that the construction promises to be regular was singular."""


class AsymmetryDetected(HrgcError):
    """An extracted message matrix failed its symmetry check (corrupt input)."""


class DecodeFailure(HrgcError):
    """Errors-and-erasures decoding could not certify a unique codeword."""
