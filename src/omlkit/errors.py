"""Exception types shared across the package."""


class OmlkitError(Exception):
    """Base class for all structural errors raised by omlkit."""


class NotALattice(OmlkitError):
    """A pair of elements has no unique least upper / greatest lower bound."""

    def __init__(self, kind, witness):
        self.kind = kind          # "join" or "meet"
        self.witness = witness    # pair of element names
        super().__init__(f"no unique {kind} for {witness}")


class NoBounds(OmlkitError):
    pass


class CycleDetected(OmlkitError):
    pass


class NotComparable(OmlkitError):
    pass


class NotBelowJoin(OmlkitError):
    pass


class TooLarge(OmlkitError):
    pass


class RowsTooSmall(OmlkitError):
    pass


class NotOrderInverting(OmlkitError):
    def __init__(self, x, y):
        self.witness = (x, y)
        super().__init__(f"perp not order-inverting at ({x}, {y})")


class NotInvolutive(OmlkitError):
    def __init__(self, x):
        self.witness = (x,)
        super().__init__(f"perp not an involution at {x}")


class NotComplement(OmlkitError):
    def __init__(self, x):
        self.witness = (x,)
        super().__init__(f"perp({x}) is not a complement of {x}")


class NotOML(OmlkitError):
    pass


class NotCentral(OmlkitError):
    pass


class DivisionByZero(OmlkitError):
    pass


class DimensionMismatch(OmlkitError):
    pass


class ZeroVector(OmlkitError):
    pass


class DependentInput(OmlkitError):
    pass


class ParseError(OmlkitError):
    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class UnknownName(OmlkitError):
    pass


class NonTotalPerp(OmlkitError):
    pass


class HeuristicGCDFailed(OmlkitError):
    pass
