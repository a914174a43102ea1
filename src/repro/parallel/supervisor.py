"""Supervision policy for the parallel experiment engine.

:mod:`repro.parallel.pool` gives the *mechanisms* — heartbeats, hang
detection, ``kill``/``respawn`` — and this module supplies the *policy*
that :class:`repro.parallel.engine.PoolEngine` drives:

* **Kill accounting and quarantine.**  Every worker kill (crash, blown
  deadline, lost heartbeat) is charged to the unit that was in flight.
  The unit is requeued until it has killed ``MAX_WORKER_KILLS``
  workers, at which point it is *poisoned*: marked FAILED with a
  :class:`repro.errors.PoisonUnitError` and a structured ``detail``
  record in the journal, so a segfaulting input cannot crash-loop the
  pool forever.
* **Exponential-backoff respawn.**  Consecutive kills double the delay
  before the next respawn (``BACKOFF_BASE`` up to ``BACKOFF_MAX``);
  a healthy completion resets it.  A bounded respawn budget converts
  "workers keep dying" into either a clean error or a degraded-serial
  finish (the executor's loop runs the rest in the parent) instead of
  a fork bomb.
* **AIMD admission control.**  :class:`AIMDController` throttles how
  many units may be in flight at once: additive increase on every
  healthy completion, multiplicative decrease on every breach, never
  below 1 and never above the worker count.  A pool under memory or
  scheduling pressure sheds load instead of amplifying it.

The dataclass :class:`SupervisorConfig` holds the four knobs callers
set; the policy numbers are module constants.  The engine treats
``supervision=None`` as "default supervision on" and
``SupervisorConfig(enabled=False)`` as the old unsupervised behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ParallelError

__all__ = ["AIMDController", "SupervisorConfig", "UnitSupervisor"]


#: Worker heartbeat cadence in seconds.
HEARTBEAT_INTERVAL = 0.5
#: Silence longer than this is a hang (6x the interval).
HEARTBEAT_TIMEOUT = 6.0 * HEARTBEAT_INTERVAL
#: Seconds between SIGTERM and SIGKILL when putting a worker down.
KILL_GRACE = 1.0
#: Worker kills a single unit may cause before quarantine.
MAX_WORKER_KILLS = 3
#: Respawn backoff: doubles per consecutive kill from the base, capped.
BACKOFF_BASE = 0.1
BACKOFF_MAX = 2.0
#: AIMD admission: +add per healthy completion, *mult per breach.
AIMD_ADD = 1.0
AIMD_MULT = 0.5


@dataclass(frozen=True)
class SupervisorConfig:
    """The knobs callers set on supervised parallel execution.

    The timing and policy numbers (heartbeat cadence, kill grace, kill
    allowance, backoff, AIMD factors) are the module constants above.
    ``enabled=False`` restores the pre-supervision engine exactly (no
    heartbeat thread, crash == immediate failure).
    """

    enabled: bool = True
    #: Hard per-unit wall clock enforced by the parent; ``None`` = off.
    unit_deadline: Optional[float] = None
    #: Total respawn budget; ``None`` = units*MAX_WORKER_KILLS + jobs.
    max_respawns: Optional[int] = None
    #: Fall back to in-parent serial execution when the pool cannot be
    #: kept healthy (respawn budget exhausted); otherwise raise.
    degraded_ok: bool = True

    def validate(self) -> None:
        if self.max_respawns is not None and self.max_respawns < 0:
            raise ParallelError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )


class AIMDController:
    """Additive-increase / multiplicative-decrease admission window.

    The window is a float internally (so repeated decreases converge
    smoothly) but :meth:`get` reports the usable integer, clamped to
    ``[floor, cap]``.  One controller governs one pool.
    """

    def __init__(
        self,
        *,
        base: float,
        cap: float,
        add: float = 1.0,
        mult: float = 0.5,
        floor: float = 1.0,
    ) -> None:
        if floor < 1.0 or cap < floor:
            raise ParallelError(
                f"need 1 <= floor <= cap, got floor={floor} cap={cap}"
            )
        self._floor = float(floor)
        self._cap = float(cap)
        self._add = float(add)
        self._mult = float(mult)
        self._window = min(self._cap, max(self._floor, float(base)))
        self.increases = 0
        self.decreases = 0

    def feedback(self, ok: bool) -> None:
        """Report one completion (ok) or one breach (not ok)."""
        if ok:
            self._window = min(self._cap, self._window + self._add)
            self.increases += 1
        else:
            self._window = max(self._floor, self._window * self._mult)
            self.decreases += 1

    def get(self) -> int:
        """Current admission window as a usable integer (>= 1)."""
        return max(1, int(self._window))


@dataclass
class _UnitHealth:
    kills: int = 0
    reasons: List[str] = field(default_factory=list)
    last_error: Optional[str] = None


class UnitSupervisor:
    """Parent-side supervision state for one ``run_units(jobs=N)`` pool.

    The engine reports events (:meth:`record_kill`, :meth:`on_healthy`)
    and asks questions (:meth:`poisoned`, :meth:`window`,
    :meth:`consume_respawn`, :meth:`backoff_delay`).
    """

    def __init__(self, config: SupervisorConfig, *, jobs: int, count: int):
        config.validate()
        self.jobs = jobs
        self._units: Dict[int, _UnitHealth] = {}
        self._consecutive_kills = 0
        self._respawns_left = (
            config.max_respawns
            if config.max_respawns is not None
            else count * MAX_WORKER_KILLS + jobs
        )
        self._aimd = AIMDController(
            base=jobs, cap=jobs, add=AIMD_ADD, mult=AIMD_MULT
        )
        # Totals for the suite report.
        self.crashes = 0
        self.hangs = 0
        self.requeues = 0
        #: Units requeued because a *batch sibling* took the worker down
        #: — they never ran, so they are not charged a kill and cannot
        #: be poisoned by a neighbor's crash.
        self.sibling_requeues = 0
        self.respawns = 0
        self.poisoned_units: List[str] = []
        self.degraded = False

    # -- kill accounting ------------------------------------------------

    def record_kill(self, index: int, *, reason: str, error: str) -> int:
        """Charge one worker kill to unit ``index``; return its total."""
        health = self._units.setdefault(index, _UnitHealth())
        health.kills += 1
        health.reasons.append(reason)
        health.last_error = error
        if reason == "crash":
            self.crashes += 1
        else:
            self.hangs += 1
        self._consecutive_kills += 1
        self._aimd.feedback(ok=False)
        return health.kills

    def poisoned(self, index: int) -> bool:
        health = self._units.get(index)
        return (
            health is not None
            and health.kills >= MAX_WORKER_KILLS
        )

    def poison_detail(self, index: int) -> Dict[str, object]:
        """Structured journal record for a quarantined unit."""
        health = self._units.get(index, _UnitHealth())
        return {
            "poison": True,
            "kills": health.kills,
            "reasons": list(health.reasons),
            "last_error": health.last_error,
        }

    def on_healthy(self) -> None:
        """A unit completed normally (done or ordinary error)."""
        self._consecutive_kills = 0
        self._aimd.feedback(ok=True)

    # -- respawn policy -------------------------------------------------

    def consume_respawn(self) -> bool:
        """Permission to respawn one worker; False = budget exhausted."""
        if self._respawns_left <= 0:
            return False
        self._respawns_left -= 1
        self.respawns += 1
        return True

    def backoff_delay(self) -> float:
        """Pre-respawn delay: doubles per consecutive kill, capped."""
        if self._consecutive_kills <= 1:
            return 0.0
        exponent = self._consecutive_kills - 2
        return min(BACKOFF_MAX, BACKOFF_BASE * (2.0**exponent))

    # -- admission ------------------------------------------------------

    def window(self) -> int:
        """How many units may be in flight right now."""
        return self._aimd.get()

    # -- reporting ------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "crashes": self.crashes,
            "hangs": self.hangs,
            "requeues": self.requeues,
            "sibling_requeues": self.sibling_requeues,
            "respawns": self.respawns,
            "poisoned": list(self.poisoned_units),
            "degraded": self.degraded,
            "window": self._aimd.get(),
            "window_decreases": self._aimd.decreases,
        }
