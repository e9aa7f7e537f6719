"""Exception types shared across the package."""


class VertexError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeMismatch(VertexError, ValueError):
    """Matrix dimensions are inconsistent with the requested operation."""


class NonFiniteMatrix(VertexError, ValueError):
    """A matrix given as input holds a NaN or an infinite entry."""


class SingularMatrix(VertexError, ArithmeticError):
    """A matrix that must be invertible is numerically rank-deficient."""


class RankDeficient(VertexError, ValueError):
    """The row concatenation (A|B) has rank below the vertex degree."""


class NotSelfAdjoint(VertexError, ValueError):
    """A·B* fails the Hermitian admissibility test."""


class NotUnitary(VertexError, ValueError):
    """A matrix expected to be unitary is not, within tolerance."""


class InvalidRankPair(VertexError, ValueError):
    """A rank pair (r_a, r_b) violates 0 <= r <= n or r_a + r_b >= n."""


#: a uniform-block design's block sizes are its rank pair's (``forms.block_sizes``)
InvalidShape = InvalidRankPair


class SingularSBlock(VertexError, ArithmeticError):
    """The Hermitian S block is singular where a regular one is required."""


class DocumentError(VertexError, ValueError):
    """A coupling or form document cannot be parsed."""


class SeriesDivergence(UserWarning):
    """A momentum series is being evaluated outside its convergence region."""
