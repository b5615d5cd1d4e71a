"""Exception hierarchy for catalog operations.

Every domain failure raises a subclass of CatalogError so the CLI can map
them uniformly to exit code 1. Usage errors and corruption get their own
branches (exit codes 2 and 3).
"""


# What a parse of a catalog file raises when the file does not parse: a
# value or shape it refuses, or JSON nested deeper than the parser's
# recursion allows.
PARSE_ERRORS = (ValueError, KeyError, TypeError, RecursionError)


class CatalogError(Exception):
    """Base class for all domain-level failures."""


class NotFound(CatalogError):
    """An object, node, or link id does not exist in the catalog."""


class LockHeld(CatalogError):
    """Another live process owns the catalog's writer lock."""


class CorruptCatalog(CatalogError):
    """The catalog manifest or a data file fails to parse."""


class ValidationFailed(CatalogError):
    """A hypernode or catalog graph failed structural validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        details = "; ".join(v.message for v in self.violations)
        super().__init__(f"validation failed: {details}")


class StorageFull(CatalogError):
    """The underlying filesystem refused a durable write."""


class MissingProperty(CatalogError):
    """A required object property was not supplied."""


class KindMismatch(CatalogError):
    """An operation targeted a node of the wrong kind."""


class NotComparable(CatalogError):
    """Two objects share no node pair a similarity metric can compare."""


class TooFewParents(CatalogError):
    """A parenthood link needs at least two parents."""


class CycleDetected(CatalogError):
    """Adding this parenthood link would create a cycle."""


class EmptyTagSet(CatalogError):
    """tag_object was called with no tags."""


class UnknownThesaurus(CatalogError):
    """The named thesaurus is not loaded in this catalog."""


class DuplicateName(CatalogError):
    """A resource with this name is already loaded."""


class ResourceParseError(CatalogError):
    """A thesaurus or data file failed to parse.

    Carries the position of the failure when known.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message)


class EmptyQuery(CatalogError):
    """A search query tokenized to zero terms."""


class Unreadable(CatalogError):
    """A file path could not be read."""


class NotText(CatalogError):
    """A text-only operation was applied to a non-text file."""
