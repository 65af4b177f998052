"""Exception types raised by the dapt package."""


class DaptError(Exception):
    """Base class for all dapt errors."""


class GridTooSmall(DaptError):
    """Fewer grid nodes than the operation's stencil requires."""


class DimensionMismatch(DaptError):
    """Array shapes are inconsistent with each other or with the grid."""


class NonHermitianInput(DaptError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class NotAntiHermitian(DaptError):
    """A generator expected to be anti-Hermitian is not, beyond tolerance."""


class DegeneracyChanged(DaptError):
    """Degeneracy structure (cluster sizes) changed along the path."""


class RankDeficientOverlap(DaptError):
    """Frame overlap between neighbouring nodes is (near) singular."""


class GapCollapse(DaptError):
    """An inter-level energy gap fell below the configured floor."""


class NotGroundStart(DaptError):
    """Operation requires the state to start inside the lowest level."""


class StepTooLarge(DaptError):
    """Propagator substep budget exceeded for the requested accuracy."""


class InsufficientSweep(DaptError):
    """Too few or too narrow sweep points for a meaningful power-law fit."""


class ConfigError(DaptError):
    """Invalid or inconsistent run configuration."""
