"""Exception types shared across the package."""


class ZonokitError(Exception):
    """Base class for all package errors."""


class DimensionError(ZonokitError):
    """Input shapes are incompatible with the requested operation."""


class DegeneracyError(ZonokitError):
    """Input is rank-deficient or singular where full rank is required."""


class CapacityError(ZonokitError):
    """Input exceeds a documented desk-scale enumeration bound."""


class NoWitnessError(ZonokitError):
    """A constructive map was requested but its hypothesis fails."""


class NoRealRootError(ZonokitError):
    """No real exterior root exists for the given matrix."""


class ReconstructionError(ZonokitError):
    """A reconstructed object failed its mandatory verification."""


class MeshSurfaceError(ZonokitError):
    """The facet polygons do not close into a sphere."""
