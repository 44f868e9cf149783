"""Exception types shared across the package.

Every error raised on a documented precondition violation derives from
AdaptcoordError so callers can distinguish contract failures from bugs.
InternalInvariantViolation is reserved for states the algorithms prove
impossible; seeing one means the implementation is wrong, not the input.
"""


class AdaptcoordError(Exception):
    """Base class for all package-specific errors."""


# exact univariate arithmetic


class ZeroPolynomial(AdaptcoordError):
    """An operation that needs a nonzero polynomial received zero."""


class NotSquarefree(AdaptcoordError):
    """Real-root counting requires a squarefree polynomial."""


# bivariate polynomials and their geometry


class EmptySupport(AdaptcoordError):
    """A Newton polyhedron cannot be built from an empty support."""


class DegenerateInX2(AdaptcoordError):
    """The polynomial does not involve x2, so x2-root structure is undefined."""


# weighted-homogeneous analysis


class NotQuasiHomogeneous(AdaptcoordError):
    """The support does not lie on a single line with positive weights."""


class MonomialInput(AdaptcoordError):
    """Single-term input where root structure is needed."""


class AxesNotNormalized(AdaptcoordError):
    """An operation assumed k1 <= k2 but the input weight has k1 > k2."""


class WrongHomogeneity(AdaptcoordError):
    """Shear prediction needs weight ratio k2/k1 to be a positive integer."""


# adaptedness and the shear iteration


class NonvanishingGradient(AdaptcoordError):
    """Input must vanish to order >= 2 at the origin."""


class AlreadyAdapted(AdaptcoordError):
    """A shear step was requested but the coordinates are already adapted."""


class IterationCapExceeded(AdaptcoordError):
    """Shear iteration hit the step cap without terminating or certifying."""


class InternalInvariantViolation(AdaptcoordError):
    """A provably-impossible state was reached; indicates a bug."""


# cluster bookkeeping


class NonIntegerVertex(AdaptcoordError):
    """Cluster data reassembled to a vertex with a fractional coordinate."""


# oscillatory quadrature


class GridTooCoarse(AdaptcoordError):
    """Requested quadrature grid cannot resolve the oscillation."""


# expression parsing


class PolySyntaxError(AdaptcoordError):
    """Syntax error in a polynomial expression, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class NonIntegerExponent(PolySyntaxError):
    """Exponents must be non-negative integer literals."""


class UnknownVariable(PolySyntaxError):
    """Only x1/x2 (aliases x/y) are valid variables."""
