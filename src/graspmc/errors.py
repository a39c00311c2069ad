"""Exception types raised across the library."""


class GraspMCError(Exception):
    """Base class for all library errors."""


class ZeroQuaternion(GraspMCError):
    """Quaternion norm too small to normalize."""


class NonSymmetricCovariance(GraspMCError):
    """Matrix handed to a symmetric decomposition is not symmetric."""


class DecompositionFailure(GraspMCError):
    """Covariance factorization failed even after jitter escalation."""


class EmptyHistory(GraspMCError):
    """Chain history has no states to subsample from."""


class NoRegions(GraspMCError):
    """Jump-target selection called with an empty region list."""


class DemonstrationFailure(GraspMCError):
    """Demonstrated-grasp search exhausted its attempt budget."""


class InvalidDemonstration(GraspMCError):
    """No demonstrations or modes were given, or one has zero density on its object."""


class MissingSourceModel(GraspMCError):
    """Transfer experiment configured without a source model."""


class InvalidConfig(GraspMCError, ValueError):
    """An experiment config field has the wrong type or lies out of range."""
