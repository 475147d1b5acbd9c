"""Exception hierarchy. Every error raised by this package derives from
GmrfSelectError.

One class per failure: a new raise site reuses the class that already names
its failure, and the message says where it happened. So SingularMatrix is
every block that must be positive definite and is not, wherever it sits, and
the DP's kernel drops exactly that (and numpy's LinAlgError). RankDeficient
stays apart: the SVD rounding refuses a rank-deficient block on purpose, and
folding it into SingularMatrix would make the kernel drop such blocks instead.
"""


class GmrfSelectError(Exception):
    pass


# --- supported-matrix operations ---

class IndexOutOfSupport(GmrfSelectError):
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


class NotATree(GmrfSelectError):
    pass


class IndependentPairPresent(GmrfSelectError):
    pass


class InfeasibleParameters(GmrfSelectError):
    pass


class InvariantViolation(GmrfSelectError):
    pass


# --- size caps: the exhaustive search's n and the DP's state space ---

class InstanceTooLarge(GmrfSelectError):
    pass


# --- tree decompositions and the DP ---

class InvalidDecomposition(GmrfSelectError):
    pass


class OutOfGridRange(GmrfSelectError):
    pass


class RankDeficient(GmrfSelectError):
    pass


class NumericFailure(GmrfSelectError):
    pass


# --- file parsing ---

class ParseError(GmrfSelectError):
    pass
