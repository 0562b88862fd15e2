"""Exception hierarchy for the Hilda reproduction.

Every error raised by the library derives from :class:`ReproError` so
applications embedding the library can catch a single base class.  The
sub-hierarchy mirrors the major subsystems (relational substrate, SQL
engine, Hilda language front end, runtime, compiler, web container).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ConfigError(ReproError, ValueError):
    """A typed configuration object (``repro.config``) was built with an
    invalid value, or a constructor was given a config of the wrong type.

    Also a :class:`ValueError` so pre-existing callers that caught
    ``ValueError`` for bad constructor arguments keep working.
    """


# ---------------------------------------------------------------------------
# Relational substrate
# ---------------------------------------------------------------------------


class RelationalError(ReproError):
    """Base class for errors in the relational substrate."""


class SchemaError(RelationalError):
    """A schema definition is invalid (duplicate columns, bad types, ...)."""


class TypeMismatchError(RelationalError):
    """A value does not conform to the declared column type."""


class IntegrityError(RelationalError):
    """A key or arity constraint was violated."""


class UnknownTableError(RelationalError):
    """A referenced table does not exist in the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown table: {name!r}")
        self.name = name


class UnknownColumnError(RelationalError):
    """A referenced column does not exist in the referenced table."""

    def __init__(self, name: str, table: str | None = None) -> None:
        where = f" in table {table!r}" if table else ""
        super().__init__(f"unknown column: {name!r}{where}")
        self.name = name
        self.table = table


class DuplicateTableError(RelationalError):
    """Attempt to create a table whose name already exists."""

    def __init__(self, name: str) -> None:
        super().__init__(f"table already exists: {name!r}")
        self.name = name


# ---------------------------------------------------------------------------
# SQL engine
# ---------------------------------------------------------------------------


class SQLError(ReproError):
    """Base class for SQL front-end and execution errors."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SQLBindingError(SQLError):
    """Name resolution failed (unknown or ambiguous table/column)."""


class SQLExecutionError(SQLError):
    """A runtime failure while executing a SQL statement."""


# ---------------------------------------------------------------------------
# Hilda language front end
# ---------------------------------------------------------------------------


class HildaError(ReproError):
    """Base class for Hilda language errors."""


class BuilderError(HildaError):
    """The fluent authoring DSL (``repro.api``) was used incorrectly.

    Messages name the AUnit / activator / handler being built so the
    failing call is identifiable without a stack trace.
    """


class HildaSyntaxError(HildaError):
    """The Hilda program text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class HildaValidationError(HildaError):
    """A Hilda program violates a static rule of the language."""


class UnknownAUnitError(HildaError):
    """An activator references an AUnit that is not defined."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown AUnit: {name!r}")
        self.name = name


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


class RuntimeHildaError(ReproError):
    """Base class for Hilda runtime errors."""


class ActivationError(RuntimeHildaError):
    """Activation or reactivation of an AUnit instance failed."""


class HandlerError(RuntimeHildaError):
    """Evaluating a handler condition or action failed."""


class ConflictError(RuntimeHildaError):
    """A user action targets an AUnit instance that is no longer active.

    This is the application-level conflict the paper's Section 3.2.6
    describes: the Basic AUnit instance the user interacted with has been
    deactivated by a concurrent action, so the pending operation must be
    rejected.
    """

    def __init__(self, instance_id: int, message: str | None = None) -> None:
        super().__init__(
            message
            or f"operation rejected: AUnit instance {instance_id} is no longer active"
        )
        self.instance_id = instance_id


class SessionError(RuntimeHildaError):
    """A session identifier is unknown or has been closed."""


# ---------------------------------------------------------------------------
# Durable storage
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for the durable storage subsystem (``repro.storage``)."""


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent state.

    Raised loudly — a snapshot whose checksum does not match, or recovered
    tables failing :meth:`~repro.relational.table.Table.check_integrity` —
    rather than silently serving wrong rows (see ``docs/storage.md``).
    """


class SimulatedCrash(Exception):
    """A fault injected at a :class:`~repro.storage.wal.CrashPoint`.

    Deliberately *not* a :class:`ReproError`: a simulated power failure is
    not a library error, and must never be swallowed by handlers catching
    the library's exception hierarchy.  Raised only by test harnesses that
    armed a crash point (see ``docs/storage.md``).
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


# ---------------------------------------------------------------------------
# Compiler and web container
# ---------------------------------------------------------------------------


class CompilerError(ReproError):
    """Code generation or compilation of a Hilda program failed."""


class WebError(ReproError):
    """Base class for the web container substrate."""


class RoutingError(WebError):
    """No handler matched the incoming request path."""


class FormDecodingError(WebError):
    """Posted form data could not be decoded into a Basic AUnit action."""


# ---------------------------------------------------------------------------
# Cluster serving
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """Base class for the multi-process serving subsystem (``repro.cluster``)."""


class RpcError(ClusterError):
    """A framed RPC request failed: bad frame, codec error, timeout, or the
    remote worker reported an unexpected fault."""


class WorkerUnavailableError(ClusterError):
    """The worker owning a shard cannot be reached (crashed or draining).

    The router maps this to a 503 response with ``Retry-After`` so affine
    sessions can retry once the worker restarts (see docs/cluster.md).
    """

    def __init__(self, worker: int, message: str | None = None) -> None:
        super().__init__(message or f"cluster worker {worker} is unavailable")
        self.worker = worker


class WorkerBusyError(ClusterError):
    """A worker's RPC connection pool is saturated; the worker itself is fine.

    Deliberately *not* a :class:`WorkerUnavailableError`: the router maps
    this to a retryable 503 without marking the worker dead, so the monitor
    never terminates (and restarts) a healthy worker that is merely under
    load — a restart would destroy its in-memory web sessions.  Health
    probes run on a dedicated out-of-pool connection for the same reason.
    """

    def __init__(self, worker: int, message: str | None = None) -> None:
        super().__init__(
            message or f"cluster worker {worker} connection pool is exhausted"
        )
        self.worker = worker
