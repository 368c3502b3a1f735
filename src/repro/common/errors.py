"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  The simulator raises :class:`WarehouseError` subclasses for
vendor-API-style failures (mirroring how a real CDW client surfaces SQL
errors); the optimizer raises :class:`ConstraintViolationError` /
:class:`InvalidActionError` for programming errors in action handling.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class WarehouseError(ReproError):
    """Base class for vendor-API style failures from the CDW simulator."""


class UnknownWarehouseError(WarehouseError):
    """An operation referenced a warehouse name that does not exist."""

    def __init__(self, name: str):
        super().__init__(f"warehouse {name!r} does not exist")
        self.name = name


class WarehouseTimeoutError(WarehouseError):
    """A vendor API call timed out; the write may or may not have landed.

    Callers must read the configuration back to learn what actually
    happened (the actuator's post-apply verification does exactly this).
    """


class ConfigRejectedError(WarehouseError):
    """The service rejected a configuration write (quota, validation, ...)."""


class InjectedFaultError(WarehouseError):
    """A transient vendor failure injected by :mod:`repro.faults`.

    Deliberately a :class:`WarehouseError` subclass: consumers must survive
    it through the same paths that handle real vendor flakiness.
    """


class InvalidActionError(ReproError):
    """An action is malformed or not applicable to the target warehouse."""


class ConstraintViolationError(ReproError):
    """An action would violate a customer constraint that is in force."""


class TelemetryError(ReproError):
    """Telemetry was requested for an invalid window or missing warehouse."""


class RecoveryError(ReproError):
    """A durable artifact failed validation during checkpoint restore.

    Raised for torn journal tails, checksum/framing mismatches, sequence
    gaps, empty or stale snapshots, and ``config_hash`` mismatches.  The
    contract is all-or-nothing: a restore either reconstructs the exact
    pre-crash control-plane state or raises this error — never a silent
    partial restore.
    """


class ObservabilityError(ReproError):
    """The observability layer was driven incorrectly (bad metric name,
    mismatched metric kinds, stop without start, ...) or handed an
    artifact it cannot read."""
