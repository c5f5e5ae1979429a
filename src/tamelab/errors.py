"""Exception types shared across the package.

Every operational failure mode has its own class so callers (and the CLI)
can branch on the kind of failure rather than parsing messages.
"""

from __future__ import annotations


class TamelabError(Exception):
    """Base class for all package-specific errors."""


class PointOutsideAmbient(TamelabError):
    """A point violates the constraints of its ambient space."""


class DimensionMismatch(TamelabError):
    """An operand has the wrong shape or dimension."""


class UnsupportedPair(TamelabError):
    """No closed form is available for this combination of exhaustions."""


class DeterminantError(TamelabError):
    """A matrix meant to be unimodular is not, within tolerance."""


class ZeroPoint(TamelabError):
    """A point required to be nonzero is zero."""


class DuplicateNodes(TamelabError):
    """Interpolation abscissae collide within the separation tolerance."""


class DegenerateConfiguration(TamelabError):
    """No sampled candidate separated the configuration within the retry budget."""


class NotOriginFixing(TamelabError):
    """An automorphism required to fix the origin moves it."""


class InconclusivePrefix(TamelabError):
    """The prefix is too short to produce the requested witness."""


class NotSameFiber(TamelabError):
    """Two matrices expected to share a projection do not."""


class InconsistentFiber(TamelabError):
    """Fiber coordinates recovered from two entries disagree."""


class FiberCollision(TamelabError):
    """Two points project to the same image, so per-fiber data is ambiguous."""


class InterpolationIllConditioned(TamelabError):
    """Interpolated data fails to reproduce its nodes within tolerance."""


class ProductNotOne(TamelabError):
    """A scaling table's per-step product is not 1 within tolerance."""


class ConditionViolated(TamelabError):
    """A rescale table fails the declared monotonicity conditions."""


class AlignmentInfeasible(TamelabError):
    """The alignment recursion cannot satisfy its constraints at some step."""


class NotDiagonal(TamelabError):
    """A matrix required to be diagonal has off-diagonal mass."""


class NotOnSubgroup(TamelabError):
    """A point does not lie on the declared one-parameter subgroup."""


class LambdaVanishes(TamelabError):
    """An overshear multiplier is numerically zero where it must be inverted."""


class StageFailed(TamelabError):
    """A pipeline stage could not meet its postcondition."""

    def __init__(self, stage: str, reason: str):
        super().__init__(f"stage {stage!r} failed: {reason}")
        self.stage = stage
        self.reason = reason


class UnsupportedField(TamelabError):
    """The requested number field is not in the supported list."""


class EmptyResult(TamelabError):
    """The requested enumeration is empty."""


class ZeroVector(TamelabError):
    """A vector required to be nonzero is zero."""


class SearchExhausted(TamelabError):
    """A monotone search hit its cap without meeting the target."""


class UnknownFamily(TamelabError):
    """The requested generator family does not exist."""


class MalformedDocument(TamelabError, ValueError):
    """A sequence document lacks a field or holds a malformed one (also a
    `ValueError`, which bad point entries raised before they were typed)."""


class DuplicatePoints(TamelabError, ValueError):
    """Two points of a prefix coincide (also a `ValueError`, which
    duplicates raised before they were typed)."""


class NonFiniteEntries(TamelabError, ValueError):
    """A point or matrix holds a nan or an infinite entry (also a
    `ValueError`, which such entries raised before they were typed)."""


class BadParams(TamelabError, ValueError):
    """Parameters passed to a generator, an estimator or a command are
    invalid (also a `ValueError`, which the library raised before)."""


class AmbientMismatch(TamelabError):
    """A criterion or transform does not apply to the sequence's ambient space."""
