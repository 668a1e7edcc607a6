"""Exception types for the numerical failure modes of the library.

Every error raised on a numerical precondition or breakdown derives from
QdhError, so callers (and the CLI) can distinguish usage mistakes from
numerical failures with a single except clause.
"""


class QdhError(Exception):
    """Base class for all library-specific errors."""


class ZeroDivisor(QdhError):
    """A Pochhammer factor or series denominator vanished."""


class Overflow(QdhError):
    """A value left the representable double-precision range."""


class DivergentSeries(QdhError):
    """The requested series neither terminates nor converges."""


class MaxTermsExceeded(QdhError):
    """Series truncation did not trigger within the term budget."""


class NoConvergentRepresentation(QdhError):
    """Neither the direct series nor any continuation converges."""


class UnknownFamily(QdhError):
    """Unrecognized coefficient-family identifier."""


class IndexOutOfWindow(QdhError):
    """A sequence was asked for an index outside its stored window."""


class ZeroDenominator(QdhError):
    """A continued-fraction convergent hit a pole."""


class BranchAmbiguous(QdhError):
    """|lambda_-| = |lambda_+|: the point sits on the cut and a side
    must be chosen explicitly."""


class PoleOnSupport(QdhError):
    """A weight-function denominator vanishes at the evaluation point."""


class NonRealResult(QdhError):
    """A quantity that must be real carries a non-negligible imaginary
    residue."""


class FormalOnly(QdhError):
    """The requested solution is a divergent (formal) series and does not
    terminate for these parameters."""


class PoleHit(QdhError):
    """Evaluation point coincides with a pole of the expansion."""


class ScanTooCoarse(QdhError):
    """Zero scan could not resolve the requested number of zeros."""


class QuadratureNotConverged(QdhError):
    """Doubling the quadrature nodes still changes the result beyond
    tolerance."""


class UnsupportedFamily(QdhError):
    """The operation is not defined for this coefficient family."""
