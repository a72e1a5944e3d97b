"""Exception hierarchy shared by all modules.

Errors fall into three groups: input validation (bad graphs, bad files),
hypothesis gates (the construction's preconditions are not met), and
ProofViolation, which means a property the underlying theorem guarantees
failed at runtime.  Guards raise ProofViolation through ``check`` or
directly, with the failed property in ``details``; ``pipeline.label``
then attaches the graph as a text reproducer on its way out.  A direct
call to a constructor or to ``resolve`` raises it without one.
"""

from __future__ import annotations


class AntimagicError(Exception):
    """Base class for all library errors."""


# -- graph construction -------------------------------------------------

class SelfLoop(AntimagicError):
    pass


class DuplicateEdge(AntimagicError):
    pass


class VertexOutOfRange(AntimagicError):
    pass


# -- decomposition / dispatch gates -------------------------------------

class WrongMaxDegree(AntimagicError):
    """The graph does not have maximum degree n - 4."""


class TooSmall(AntimagicError):
    """Too few vertices to carry the decomposition (n < 8)."""


class HypothesisViolated(AntimagicError):
    """A stage-1 constructor was invoked outside its regime."""


class NotUniversalVertex(AntimagicError):
    """The designated root does not have degree n - 1."""


class NotAntimagicShape(AntimagicError):
    """The graph provably has no antimagic labelling (isolated edge,
    or two or more isolated vertices)."""


# -- edge colouring ------------------------------------------------------

class NotBipartite(AntimagicError):
    pass


class DegreeExceedsColours(AntimagicError):
    pass


class InfeasibleBalance(AntimagicError):
    """Fewer edges than min_size * class count."""


class NotEnoughClasses(AntimagicError):
    pass


# -- labelling / resolution ----------------------------------------------

class LabelMissing(AntimagicError):
    """An exchange referenced a label that is not assigned to any edge."""


class ProofViolation(AntimagicError):
    """A theorem-guaranteed property failed.

    Either the implementation has a bug or the instance is a genuine
    counterexample.  ``reproducer`` is None where the guard raises;
    ``pipeline.label`` sets it to the graph's text rendering so the
    failure can be replayed.
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.reproducer: str | None = None
        self.details = details or {}


def check(condition: bool, message: str, **details) -> None:
    """The guard every stage shares: raise ProofViolation unless
    ``condition`` holds."""
    if not condition:
        raise ProofViolation(message, details=details)


class ProofGapWarning(UserWarning):
    """The paper-directed exchange menu failed but the exhaustive safety
    net succeeded; the case analysis transcription deserves review."""


# -- oracle ---------------------------------------------------------------

class TooLarge(AntimagicError):
    """Instance exceeds the exhaustive-search budget (m > 9)."""


class SearchFailed(AntimagicError):
    """Randomized search exhausted its iteration budget."""


# -- generator ------------------------------------------------------------

class InfeasibleRegime(AntimagicError):
    """No graph with the requested regime exists at this vertex count."""


class GenerationFailed(AntimagicError):
    """Retry budget exhausted while generating an instance."""


# -- file formats ----------------------------------------------------------

class ParseError(AntimagicError):
    pass
