"""Exception types raised across the package."""


class HierBprError(Exception):
    """Base class for all errors raised by hierbpr."""


# --- hierarchy construction ---

class MultipleRoots(HierBprError):
    """More than one node (or none at all) lacks a parent edge."""


class MultipleParents(HierBprError):
    """A node appears as the child of two different parents."""


class CycleDetected(HierBprError):
    """A node cannot reach the root by following parent links."""


class DanglingItemLeaf(HierBprError):
    """An item references a category node that does not exist."""


class SchemeTooDeep(HierBprError):
    """The allocation scheme has more layers than the effective height."""


# --- lookups ---

class UnknownItem(HierBprError):
    """Item id or index not present in the corpus."""


class UnknownUser(HierBprError):
    """User id or index not present in the corpus."""


class DimensionOutOfRange(HierBprError):
    """Visual dimension index outside [0, n_visual)."""


# --- configuration ---

class InvalidShape(HierBprError):
    """Synthetic-data configuration with inconsistent dimensions."""


class ArrayTooLarge(HierBprError):
    """A model's dimensions ask for a parameter array numpy cannot hold."""


# --- training ---

class ExhaustedRejection(HierBprError):
    """No user has both a training positive and a non-positive item."""


class NonFiniteUpdate(HierBprError):
    """A training step produced a NaN or infinite parameter value."""


class EmptyCorpus(HierBprError):
    """No training feedback to work with."""


# --- evaluation ---

class NoEvaluableUsers(HierBprError):
    """No user qualifies for the active evaluation setting."""


class HeldOutMissing(HierBprError):
    """Feedback lacks a held-out item of the checkpoint's split."""


# --- ingestion ---

class ParseError(HierBprError):
    """Malformed record in an input file."""


class OrphanItem(HierBprError):
    """Item lacks a feature vector or category assignment (strict mode)."""
