"""Exception hierarchy for the idIVM reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A relation schema is malformed or used inconsistently.

    Examples: duplicate column names, a key column that is not part of the
    schema, or a row whose arity does not match its schema.
    """


class IntegrityError(ReproError):
    """A data-integrity constraint was violated.

    Examples: inserting a duplicate primary key, or an insert i-diff whose
    key already exists in the target with different attribute values.
    """


class UnknownTableError(ReproError):
    """A table name was not found in the database catalog."""


class UnknownColumnError(ReproError):
    """An expression or plan referenced a column that does not exist."""


class PlanError(ReproError):
    """An algebraic plan is malformed.

    Examples: a join whose children share column names, or a union whose
    branches have different schemas.
    """


class ExpressionError(ReproError):
    """An expression could not be evaluated or analyzed."""


class DiffError(ReproError):
    """An i-diff or t-diff schema/instance is malformed or ineffective."""


class RuleError(ReproError):
    """No propagation rule applies, or a rule was instantiated incorrectly."""


class ScriptError(ReproError):
    """A delta script is malformed or was executed out of order."""


class SqlError(ReproError):
    """The SQL front-end could not lex, parse, or translate a statement."""


class WorkloadError(ReproError):
    """A workload generator received inconsistent parameters."""


class WireError(ReproError):
    """A value could not be encoded for (or decoded from) the compact
    cross-process wire format of :mod:`repro.core.wire`.

    Raised when a batch contains a non-primitive value (anything other
    than ``None``/``bool``/``int``/``float``/``str``) or a malformed
    wire document.
    """
