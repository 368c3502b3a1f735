"""Deterministic alerting: first-class fire/resolve events in the trace.

The paper's monitoring loop (§4.4) self-corrects — backoffs, spike
conservatism, external-change reverts — but until now those decisions only
left scattered counters and ad-hoc events behind.  :class:`AlertManager`
turns monitor signals and SLO violations into a proper alert lifecycle:

* ``fire(name, time, ...)`` opens the alert and writes an ``alert.fire``
  event into the trace; re-firing an already-active alert just bumps its
  re-fire count (no event spam while a condition persists);
* ``resolve(name, time, ...)`` closes it with an ``alert.resolve`` event
  carrying the active duration and the number of suppressed re-fires.

``core/monitoring.py`` and ``core/optimizer.py`` record their backoff /
spike / external-conflict decisions through this manager, so every
self-correction in a run is auditable afterwards (``repro.cli obs
alerts``).  Like everything in ``repro.obs``, timestamps are simulation
time passed explicitly, and exports are byte-stable sorted JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.stable_json import canonical_json
from repro.obs.metrics import ObservabilityError, _check_name

#: Alert severities, mildest first.  Severity is informational (it rides
#: along in events and exports); the lifecycle does not depend on it.
SEVERITIES = ("info", "warning", "critical")


@dataclass
class ActiveAlert:
    """State of one currently-firing alert."""

    name: str
    severity: str
    fired_at: float
    refires: int = 0


class AlertManager:
    """Per-recorder alert lifecycle tracker.

    Alert names are dotted lowercase like metric names
    (``optimizer.backoff.smoke_wh``); one name is one alert — firing it
    while active is deduplicated.
    """

    def __init__(self, recorder):
        self._recorder = recorder
        self._active: dict[str, ActiveAlert] = {}
        #: Every lifecycle transition, in emission order (plain JSON rows).
        self.history: list[dict] = []

    # ------------------------------------------------------------- lifecycle
    def fire(
        self, name: str, time: float, severity: str = "warning", **attrs: object
    ) -> bool:
        """Open ``name`` at sim time ``time``; returns False if already open."""
        _check_name(name)
        if severity not in SEVERITIES:
            raise ObservabilityError(
                f"unknown alert severity {severity!r}; one of {SEVERITIES}"
            )
        active = self._active.get(name)
        if active is not None:
            active.refires += 1
            return False
        self._active[name] = ActiveAlert(name, severity, float(time))
        self.history.append(
            {"alert": name, "state": "fire", "severity": severity, "time": float(time)}
        )
        self._recorder.emit(
            "alert.fire", time, alert=name, severity=severity, **attrs
        )
        self._recorder.counter("repro.alerts.fired").inc(time=time)
        return True

    def resolve(self, name: str, time: float, **attrs: object) -> bool:
        """Close ``name`` at sim time ``time``; returns False if not active."""
        active = self._active.pop(name, None)
        if active is None:
            return False
        self.history.append(
            {
                "alert": name,
                "state": "resolve",
                "severity": active.severity,
                "time": float(time),
            }
        )
        self._recorder.emit(
            "alert.resolve",
            time,
            alert=name,
            severity=active.severity,
            duration=float(time) - active.fired_at,
            refires=active.refires,
            **attrs,
        )
        self._recorder.counter("repro.alerts.resolved").inc(time=time)
        return True

    def set_state(
        self, name: str, firing: bool, time: float, severity: str = "warning", **attrs
    ) -> None:
        """Level-triggered convenience: fire when ``firing``, else resolve.

        Call sites that re-evaluate a condition every tick (backoff, spike)
        use this so the alert tracks the condition's edges exactly.
        """
        if firing:
            self.fire(name, time, severity=severity, **attrs)
        else:
            self.resolve(name, time, **attrs)

    # -------------------------------------------------------------- queries
    def is_active(self, name: str) -> bool:
        return name in self._active

    def active(self) -> list[ActiveAlert]:
        """Currently-firing alerts, name-sorted."""
        return [self._active[name] for name in sorted(self._active)]

    def __len__(self) -> int:
        return len(self.history)

    # -------------------------------------------------------------- exports
    def snapshot(self) -> dict[str, object]:
        return {
            "active": [
                {
                    "alert": a.name,
                    "severity": a.severity,
                    "fired_at": a.fired_at,
                    "refires": a.refires,
                }
                for a in self.active()
            ],
            "history": list(self.history),
        }

    def to_json(self) -> str:
        """Byte-stable JSON export (sorted keys, compact separators)."""
        return canonical_json(self.snapshot()) + "\n"


class _NullAlertManager:
    """Shared no-op manager handed out while observation is disabled."""

    __slots__ = ()

    def fire(self, name, time, severity="warning", **attrs) -> bool:
        return False

    def resolve(self, name, time, **attrs) -> bool:
        return False

    def set_state(self, name, firing, time, severity="warning", **attrs) -> None:
        pass

    def is_active(self, name) -> bool:
        return False


NULL_ALERTS = _NullAlertManager()
