"""Exception types shared across the package."""


class VoxelMatchError(Exception):
    """Base class for all voxelmatch errors."""


# geometry
class MismatchedLengths(VoxelMatchError):
    pass


class DegenerateGeometry(VoxelMatchError):
    pass


# volume / file containers
class BadMagic(VoxelMatchError):
    pass


class TruncatedFile(VoxelMatchError):
    pass


class UnsupportedVersion(VoxelMatchError):
    pass


class DimensionOverflow(VoxelMatchError):
    pass


class ChecksumMismatch(VoxelMatchError):
    pass


class OutOfBounds(VoxelMatchError):
    pass


class EmptyMask(VoxelMatchError):
    pass


class EmptyBox(VoxelMatchError):
    pass


# losses
class EmptyBatch(VoxelMatchError):
    pass


class NonUnitInput(VoxelMatchError):
    pass


class EmptyClass(VoxelMatchError):
    pass


# augmentation / training
class VolumeTooSmall(VoxelMatchError):
    pass


class InsufficientOverlap(VoxelMatchError):
    pass


class EmptyDataset(VoxelMatchError):
    pass


class DivergedLoss(VoxelMatchError):
    pass


class DimensionMismatch(VoxelMatchError):
    pass


class NonFiniteWeights(VoxelMatchError):
    pass


# alignment
class TooFewMatches(VoxelMatchError):
    pass


# phantom generation
class PlacementFailure(VoxelMatchError):
    pass


# metrics
class EmptySet(VoxelMatchError):
    pass


class MalformedFile(VoxelMatchError, ValueError):
    """A landmark or radii line that does not parse, or an EVF value out of range."""


class InvalidRadii(VoxelMatchError, ValueError):
    """A per-landmark radius that is not finite and positive."""


# configuration
class ConfigError(VoxelMatchError):
    pass
