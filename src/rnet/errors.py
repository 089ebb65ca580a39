"""Exception types shared across the toolkit."""


class RnetError(Exception):
    """Base class for all rnet errors; one that is not a ``ValueError`` is a solver failure."""


class SingularMatrixError(RnetError):
    """A linear solve met an exactly singular matrix."""


class DimensionMismatchError(RnetError, ValueError):
    """A matrix does not have the shape an operation requires (an input refusal)."""


class SingularBlockError(RnetError):
    """An opposite-face block of the response matrix is numerically singular.

    Raised while building the face reduction matrices; usually means the
    input response matrix is degenerate or too noisy to invert.
    """

    def __init__(self, message: str, face: str | None = None):
        super().__init__(message)
        self.face = face


class DegenerateDeltaError(RnetError):
    """The spike-removal denominator is (numerically) zero.

    Signals a conductance value inconsistent with the response matrix it is
    being removed from.
    """


class ZeroDivisorError(RnetError):
    """An off-diagonal divisor in the boundary-edge formula is too small."""


class InvalidConductanceError(RnetError):
    """A conductance value violates an operation's positivity requirement."""


class SpecMismatchError(RnetError, ValueError):
    """Two objects refer to lattices of different lengths (an input refusal)."""


class NetworkFormatError(RnetError, ValueError):
    """A document, or per-edge values from a document, mapping or array, break their rules.

    A refused value reads ``<what> of <id> must be <rule>, got <value>``.
    """


def annotate_layer(exc: RnetError, layer: int) -> RnetError:
    """Tag ``exc`` with the peel layer it occurred in and amend its message."""
    exc.layer = layer
    if exc.args:
        exc.args = (f"layer {layer}: {exc.args[0]}",) + exc.args[1:]
    else:
        exc.args = (f"layer {layer}",)
    return exc
