"""Exception types shared across the package."""


class TiltbenchError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(TiltbenchError):
    pass


class NotAdmissible(TiltbenchError):
    """Normal forms survive at max_path_len, or some length has more than
    ``algebra.COLUMN_CAP`` normal forms followed by an arrow: the relation
    ideal is not admissible (or the bound is too small)."""


class MixedLengthRelation(TiltbenchError):
    """Relation mixes path lengths; only length-homogeneous relations are
    supported by the graded normal-form machinery."""


class NotAssociative(TiltbenchError):
    pass


class NoIdentity(TiltbenchError):
    pass


class RadicalNotNilpotent(TiltbenchError):
    """The radical candidate is not the radical of the input: in
    ``presentation.quiver_presentation`` a path in the arrows it gives is
    still nonzero at length dim A + 1, past where the powers of a nilpotent
    ideal reach 0; or a path algebra's path radical differs from the kernel
    of its trace form (``BasicAlgebra.radical_basis``)."""


class NotBasic(TiltbenchError):
    """The given idempotents are not complete and orthogonal, or the product
    of the Peirce-block radical candidate with itself leaves it on a diagonal
    block: the semisimple quotient is larger than one copy of the field per
    idempotent, so some simple module is not one-dimensional."""


class NotProjective(TiltbenchError):
    pass


class NotIdempotent(TiltbenchError):
    pass


class NotRadical(TiltbenchError):
    pass


class DSquaredNonzero(TiltbenchError):
    pass


class NotSelfOrthogonal(TiltbenchError):
    pass


class NotTilting(TiltbenchError):
    pass


class InternalDisagreement(TiltbenchError):
    """Two supposedly equivalent computations disagreed."""


class DecompositionError(TiltbenchError):
    """Splitting machinery could not certify a decomposition (typically a
    non-split endomorphism ring, which is outside the supported setting)."""


class PresentationError(TiltbenchError):
    """Quiver presentation recovery failed its own certification."""


class PreconditionFailed(TiltbenchError):
    def __init__(self, which: str, detail: str = ""):
        self.which = which
        super().__init__(f"precondition failed: {which}" + (f" ({detail})" if detail else ""))


class NotConcentrated(TiltbenchError):
    """Image complex has homology outside degree zero; carries the profile."""

    def __init__(self, profile):
        self.profile = profile
        nonzero = sorted(d for d, v in profile.items() if any(v))
        super().__init__(f"homology not concentrated in degree 0: nonzero in degrees {nonzero}")
