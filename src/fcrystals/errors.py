"""Exception types shared across the library."""


class CrystalError(Exception):
    """Base class for all library errors."""


class InternalError(Exception):
    """A broken invariant of the library itself, never an input error."""


class CheckFailed(Exception):
    """A verification check saw a wrong result."""


class NotPrime(CrystalError):
    pass


class UnknownField(CrystalError):
    pass


class RingMismatch(CrystalError):
    pass


class NotAUnit(CrystalError):
    pass


class NoEmbedding(CrystalError):
    pass


class BadShape(CrystalError):
    pass


class SingularAtPrecision(CrystalError):
    pass


class PrecisionExhausted(CrystalError):
    pass


class OutsideExpDomain(CrystalError):
    pass


class NotDieudonne(CrystalError):
    pass


class ShiftUnsupported(CrystalError):
    pass


class SearchSpaceTooLarge(CrystalError):
    pass


class ExtensionCapExceeded(CrystalError):
    pass


class UnsupportedShape(CrystalError):
    pass


class PreconditionTooWeak(CrystalError):
    pass


class NotMultiplicative(CrystalError):
    pass


class NoSplitForm(CrystalError):
    pass


class LiftFailed(CrystalError):
    pass


class UnknownCorpusName(CrystalError):
    pass


class BadParams(CrystalError):
    pass
