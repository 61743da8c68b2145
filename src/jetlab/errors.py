"""Exception types shared across the package."""


class JetlabError(Exception):
    """Base class for all package errors."""


class EmptyMaskError(JetlabError):
    """A sup over an empty mask was requested."""


class MaskMismatchError(JetlabError):
    """Two masks that must be nested or aligned are not."""


class DepthTooLargeError(JetlabError):
    """A Cantor refinement depth would exceed the interval-count cap."""


class ResolutionTooCoarseError(JetlabError):
    """The lattice spacing cannot resolve the smallest feature requested."""


class ProbeOutsideMaskError(JetlabError):
    """A reflection probe landed outside the available data."""


class UnsupportedDomainError(JetlabError):
    """The requested operation is not defined for this domain kind."""


class CoverGapError(JetlabError):
    """A boundary lattice point inside the atlas has zero bump sum."""


class NotAnExtensionError(JetlabError):
    """A candidate extension disagrees with the base field on its domain."""


class ReplayMismatchError(JetlabError):
    """Certificate replay diverged from the stored terms."""

    def __init__(self, index, field, stored, recomputed):
        self.index = index
        self.field = field
        self.stored = stored
        self.recomputed = recomputed
        super().__init__(
            f"replay mismatch at term {index}: {field} stored={stored!r} "
            f"recomputed={recomputed!r}"
        )


class PointOutsideRegionError(JetlabError):
    """A closed-form field was evaluated off its region of definition."""
