"""Deterministic fault injection for the storage layer.

The RSS threads named *fault points* through its mutation and commit
paths (``segment.insert``, ``btree.split``, ``pagetable.flip``, ``fsync``,
...).  In production they are inert flag checks; a test arms a
:class:`FaultPlan` and the Nth hit of the chosen point raises a typed
:class:`~repro.errors.StorageError` — or a :class:`SimulatedCrash`, which
snapshots the durable backing file at the instant of failure so the test
can re-open it through recovery, exactly as a restart after a real crash
would.

Determinism is the point: the same plan against the same workload fails
at the same instruction every time, so the fault matrix in the test
suite is reproducible.  Plans can also be armed from the environment::

    REPRO_FAULTS="btree.insert@2:error" python -m repro ...
    REPRO_FAULTS="pagetable.flip@1:crash" ...

Fault points are registered at import time by the modules that host
them; :func:`registered_points` enumerates them for matrix tests.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from ..errors import FaultInjectedError, SimulatedCrash, StorageError

if TYPE_CHECKING:
    from .disk import DiskManager

#: Every fault point name declared by the storage layer, in declaration
#: order.  ``register_point`` adds to this; tests iterate it.
_REGISTERED: dict[str, str] = {}


def register_point(name: str, description: str) -> str:
    """Declare a fault point; returns the name for use with :func:`trip`."""
    _REGISTERED[name] = description
    return name


def registered_points() -> dict[str, str]:
    """All declared fault point names mapped to their descriptions."""
    return dict(_REGISTERED)


class FaultPlan:
    """Arm one fault point to fail on its Nth hit.

    ``action`` is ``"error"`` (raise ``error_type``, default
    :class:`FaultInjectedError`) or ``"crash"`` (raise
    :class:`SimulatedCrash` carrying a snapshot of the backing file).
    """

    def __init__(
        self,
        point: str,
        hit: int = 1,
        action: str = "error",
        error_type: type[StorageError] | None = None,
    ):
        if point not in _REGISTERED:
            raise ValueError(f"unknown fault point {point!r}")
        if hit < 1:
            raise ValueError("hit numbers are 1-based")
        if action not in ("error", "crash"):
            raise ValueError(f"unknown fault action {action!r}")
        self.point = point
        self.hit = hit
        self.action = action
        self.error_type = error_type

    def __repr__(self) -> str:
        return f"FaultPlan({self.point}@{self.hit}:{self.action})"

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``point@N:action`` (``@N`` and ``:action`` optional)."""
        action = "error"
        if ":" in spec:
            spec, action = spec.rsplit(":", 1)
        hit = 1
        if "@" in spec:
            spec, hit_text = spec.rsplit("@", 1)
            hit = int(hit_text)
        return cls(spec, hit=hit, action=action)


class FaultInjector:
    """Holds the armed plans and counts hits on every fault point."""

    def __init__(self) -> None:
        self._plans: list[FaultPlan] = []
        self.hits: dict[str, int] = {}
        self.fired: list[FaultPlan] = []
        self._disk: "DiskManager | None" = None

    # -- arming -----------------------------------------------------------

    def arm(self, *plans: FaultPlan) -> None:
        """Install plans (added to any already armed)."""
        self._plans.extend(plans)

    def disarm(self) -> None:
        """Remove every plan and reset hit counts."""
        self._plans.clear()
        self.hits.clear()
        self.fired.clear()

    @property
    def armed(self) -> bool:
        """Whether any plan is currently installed."""
        return bool(self._plans)

    def attach_disk(self, disk: "DiskManager | None") -> None:
        """Point crash snapshots at a durable backing file."""
        self._disk = disk

    # -- the hot check ----------------------------------------------------

    def trip(self, point: str) -> None:
        """Record a hit on ``point``; raise if an armed plan matches.

        The disarmed case is a single attribute check, so production code
        can call this unconditionally.
        """
        if not self._plans:
            return
        count = self.hits.get(point, 0) + 1
        self.hits[point] = count
        for plan in self._plans:
            if plan.point != point or plan.hit != count:
                continue
            self.fired.append(plan)
            self._plans.remove(plan)
            if plan.action == "crash":
                snapshot = (
                    self._disk.snapshot() if self._disk is not None else None
                )
                raise SimulatedCrash(point, count, snapshot)
            error_type = plan.error_type or FaultInjectedError
            if error_type is FaultInjectedError:
                raise FaultInjectedError(point, count)
            raise error_type(f"injected fault at {point!r} (hit {count})")


#: The process-wide injector.  Storage objects share it so one armed plan
#: covers every engine in the process; tests must :meth:`disarm` after use
#: (the ``fault_plan`` helper below does this automatically).
INJECTOR = FaultInjector()


def get_injector() -> FaultInjector:
    """The process-wide fault injector."""
    return INJECTOR


class fault_plan:
    """Context manager: arm plans on entry, disarm everything on exit.

    >>> with fault_plan(FaultPlan("btree.insert", hit=2)):
    ...     db.execute("INSERT ...")    # doctest: +SKIP
    """

    def __init__(self, *plans: FaultPlan):
        self._plans = plans

    def __enter__(self) -> FaultInjector:
        INJECTOR.arm(*self._plans)
        return INJECTOR

    def __exit__(self, *exc_info: object) -> None:
        INJECTOR.disarm()


def plans_from_env() -> list[FaultPlan]:
    """Plans described by ``REPRO_FAULTS`` (semicolon/comma separated)."""
    raw = os.environ.get("REPRO_FAULTS", "")
    specs = [part.strip() for part in raw.replace(";", ",").split(",")]
    return [FaultPlan.parse(spec) for spec in specs if spec]


def arm_from_env() -> bool:
    """Arm any ``REPRO_FAULTS`` plans; returns whether any were armed."""
    plans = plans_from_env()
    if plans:
        INJECTOR.arm(*plans)
    return bool(plans)
