"""Exception hierarchy. Every error raised by this package derives from GmrfSelectError."""


class GmrfSelectError(Exception):
    pass


# --- supported-matrix operations ---

class IndexOutOfSupport(GmrfSelectError):
    pass


class SingularComplement(GmrfSelectError):
    pass


class SingularMatrix(GmrfSelectError):
    pass


# --- model construction and queries ---

class InvalidMatrix(GmrfSelectError, ValueError):
    """An outside matrix that is misshapen, non-finite, too large or
    asymmetric. ``row`` is the 0-based row holding the offending entry, or
    None when no row is at fault."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DisconnectedGraph(GmrfSelectError):
    pass


class SingularSubmatrix(GmrfSelectError):
    pass


class SingularObservationBlock(GmrfSelectError):
    pass


class DisconnectedFromS(GmrfSelectError):
    pass


class NotATree(GmrfSelectError):
    pass


class IndependentPairPresent(GmrfSelectError):
    pass


class InfeasibleParameters(GmrfSelectError):
    pass


class InvariantViolation(GmrfSelectError):
    pass


# --- exact search ---

class InstanceTooLarge(GmrfSelectError):
    pass


# --- tree decompositions and the DP ---

class InvalidDecomposition(GmrfSelectError):
    pass


class WidthMismatch(GmrfSelectError):
    pass


class EliminationOrderBroken(GmrfSelectError):
    pass


class OutOfGridRange(GmrfSelectError):
    pass


class EigenvalueOutOfRange(GmrfSelectError):
    pass


class RankDeficient(GmrfSelectError):
    pass


class StateSpaceExceeded(GmrfSelectError):
    pass


class NumericFailure(GmrfSelectError):
    pass


class EmptyTable(GmrfSelectError):
    pass


# --- file parsing ---

class ParseError(GmrfSelectError):
    pass
