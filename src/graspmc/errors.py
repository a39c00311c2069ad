"""Exception types raised across the library, and the one reader of JSON
documents, which raises them."""

import json
from typing import Callable, TypeVar

T = TypeVar("T")


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


class InvalidDocument(GraspMCError, ValueError):
    """A JSON document is malformed, of another schema, or lacks a field."""


def read_document(text: str, schema: str, build: Callable[[dict], T]) -> T:
    """`build(doc)` for the JSON object `text` of this schema.

    Bad JSON, a non-object, another schema, or a KeyError, TypeError,
    IndexError, ValueError or OverflowError (an integer too large for a
    float) inside `build` raise InvalidDocument; a GraspMCError that
    `build` raises passes through unchanged.
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("schema") != schema:
            raise InvalidDocument(f"not a {schema} document")
        return build(doc)
    except GraspMCError:
        raise
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise InvalidDocument(f"malformed {schema} document: {exc!r}") from exc
