"""Exception types shared across the package."""


class LatpatchError(Exception):
    """Base class for every domain error raised by this package."""


class CycleDetected(LatpatchError):
    pass


class NotBounded(LatpatchError):
    pass


class NotALattice(LatpatchError):
    """A lattice axiom failed; `witness` names the offending pair, if any."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotComparable(LatpatchError):
    pass


class EmptySet(LatpatchError):
    pass


class SizeBoundExceeded(LatpatchError):
    pass


class MissingAnchor(LatpatchError):
    """An eye record no longer matches an interval of the current lattice."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class NotRectangular(LatpatchError):
    pass


class NotAFilter(LatpatchError):
    pass


class NotAnIdeal(LatpatchError):
    pass


class NotAChain(LatpatchError):
    pass


class NotIso(LatpatchError):
    pass


class EmbeddingFailed(LatpatchError):
    """No drawing was found; `lattice` is the validated lattice when the
    failure came from synthesizing one for a parsed document."""

    def __init__(self, message, lattice=None):
        super().__init__(message)
        self.lattice = lattice


class InvalidSite(LatpatchError):
    pass


class ChainWasSingletonT(LatpatchError):
    """The overlap chain was exactly {t}, which no valid witness can produce."""


class ImproperWitness(LatpatchError):
    pass


class StuckNotRectangular(LatpatchError):
    """No extension site exists although the lattice is not yet rectangular."""


class IterationBoundExceeded(LatpatchError):
    pass


class BadX(LatpatchError):
    pass


class IsPatch(LatpatchError):
    pass


class AssertionFailed(LatpatchError):
    """A guaranteed postcondition failed, i.e. the input was outside the
    class the operation is proved for."""


class NotSemimodular(LatpatchError):
    pass


class NoDecomposition(LatpatchError):
    """No chain gluing was found for a non-patch input; never expected on
    valid planar semimodular lattices."""


class BadParams(LatpatchError):
    pass


class SchemaError(LatpatchError):
    """A document violated the JSON schema; `path` points at the bad field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
