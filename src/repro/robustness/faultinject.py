"""Deterministic fault injection for robustness testing.

Three families of faults, all fully deterministic so failures reproduce:

* **Byte-level corruption** of on-disk trace files —
  :func:`flip_byte`, :func:`truncate_file`, and the seeded
  :func:`corrupt_trace` — used to prove that every corrupted or
  truncated ``.rpt`` raises a structured
  :class:`~repro.errors.TraceError` subclass rather than a silent wrong
  result or a bare ``struct.error``.

* **Transient exception injection** into simulation and experiment
  steps.  :class:`FaultPlan` raises :class:`TransientInjectedFault` for
  the first *N* visits to matching sites; the simulation drivers call
  :func:`check` at well-known sites (``sim.driver.run_single_size``,
  ``sim.driver.run_with_policy``, ``sim.sweep``), so a test can make a
  real trace pass fail twice and succeed on the third retry.

* **Parallel chaos** against the worker pool (:class:`ChaosPlan`):
  seeded selection of victim units whose workers are SIGKILLed or hung
  mid-unit, plus a corruption helper for result-cache entries
  (:func:`corrupt_cache_entry`).  Strikes fire **only inside pool
  workers** (never in the parent or a degraded-serial run) and use a
  token directory for exactly-``times`` cross-process semantics, so a
  requeued unit recovers on its next attempt — or keeps striking to
  prove poison-unit quarantine.

Injected faults deliberately do **not** derive from
:class:`~repro.errors.ReproError`: they model the *unexpected* crash the
robustness layer must survive, so they must not be swallowed by the
``except ReproError`` clauses at the CLI boundaries.
"""

from __future__ import annotations

import os
import random
import signal
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.errors import ConfigurationError

PathLike = Union[str, os.PathLike]
T = TypeVar("T")


class InjectedFault(RuntimeError):
    """A failure injected on purpose by the fault harness."""


class TransientInjectedFault(InjectedFault):
    """An injected failure that clears after a bounded number of hits."""


class FaultPlan:
    """Raise on the first ``times`` visits to matching sites.

    Attributes:
        times: how many visits raise before the fault clears.
        sites: site-name prefixes to match (None = every site).
        exc_factory: builds the exception to raise, given the site name.
    """

    def __init__(
        self,
        times: int = 1,
        *,
        sites: Optional[Sequence[str]] = None,
        exc_factory: Optional[Callable[[str], BaseException]] = None,
    ) -> None:
        if times < 0:
            raise ConfigurationError("fault count cannot be negative")
        self.times = times
        self.sites = tuple(sites) if sites is not None else None
        self.exc_factory = exc_factory or (
            lambda site: TransientInjectedFault(f"injected fault at {site}")
        )
        self.triggered = 0
        self.visits = 0

    def matches(self, site: str) -> bool:
        if self.sites is None:
            return True
        return any(site.startswith(prefix) for prefix in self.sites)

    def visit(self, site: str) -> None:
        """Record a visit to ``site``, raising while the plan is armed."""
        if not self.matches(site):
            return
        self.visits += 1
        if self.triggered < self.times:
            self.triggered += 1
            raise self.exc_factory(site)


#: The active plan, consulted by :func:`check`.  None = faults disabled,
#: which keeps the hot-path cost of instrumented sites to one attribute
#: load and an is-None test.
_ACTIVE_PLAN: Optional[FaultPlan] = None


def check(site: str) -> None:
    """Fault-injection hook: instrumented code calls this at named sites."""
    plan = _ACTIVE_PLAN
    if plan is not None:
        plan.visit(site)


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the ``with`` block."""
    global _ACTIVE_PLAN
    previous = _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = previous


def flaky(
    fn: Callable[..., T],
    *,
    failures: int = 1,
    exc_factory: Optional[Callable[[int], BaseException]] = None,
) -> Callable[..., T]:
    """Wrap ``fn`` to raise on its first ``failures`` calls, then pass through."""
    state = {"calls": 0}
    make = exc_factory or (
        lambda call: TransientInjectedFault(f"injected fault on call {call}")
    )

    def wrapper(*args, **kwargs):
        state["calls"] += 1
        if state["calls"] <= failures:
            raise make(state["calls"])
        return fn(*args, **kwargs)

    wrapper.__name__ = getattr(fn, "__name__", "flaky")
    return wrapper


# -- byte-level corruption ----------------------------------------------


def flip_byte(path: PathLike, offset: int, mask: int = 0xFF) -> int:
    """XOR the byte at ``offset`` with ``mask`` in place; returns old value."""
    if not 1 <= mask <= 0xFF:
        raise ConfigurationError("mask must flip at least one bit")
    with open(path, "r+b") as stream:
        stream.seek(0, os.SEEK_END)
        size = stream.tell()
        if not 0 <= offset < size:
            raise ConfigurationError(
                f"offset {offset} outside file of {size} bytes"
            )
        stream.seek(offset)
        old = stream.read(1)[0]
        stream.seek(offset)
        stream.write(bytes([old ^ mask]))
    return old


def truncate_file(path: PathLike, length: int) -> int:
    """Truncate ``path`` to ``length`` bytes; returns the original size."""
    size = os.path.getsize(path)
    if not 0 <= length <= size:
        raise ConfigurationError(
            f"cannot truncate {size}-byte file to {length} bytes"
        )
    with open(path, "r+b") as stream:
        stream.truncate(length)
    return size


def corrupt_trace(
    path: PathLike,
    *,
    mode: str = "flip",
    seed: int = 0,
    offset: Optional[int] = None,
) -> int:
    """Deterministically damage a trace file.

    ``mode="flip"`` XORs one byte (chosen by ``seed`` unless ``offset``
    is given); ``mode="truncate"`` cuts the file at a seed-chosen (or
    explicit) length.  Returns the offset/length used, so tests can
    report exactly which byte proved fragile.
    """
    size = os.path.getsize(path)
    if size == 0:
        raise ConfigurationError(f"{path}: cannot corrupt an empty file")
    rng = random.Random(seed)
    if mode == "flip":
        target = rng.randrange(size) if offset is None else offset
        flip_byte(path, target, mask=rng.randrange(1, 256))
        return target
    if mode == "truncate":
        target = rng.randrange(size) if offset is None else offset
        truncate_file(path, target)
        return target
    raise ConfigurationError(f"unknown corruption mode {mode!r}")


# -- parallel chaos ------------------------------------------------------


def _token_slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


class ChaosPlan:
    """Seeded worker-kill / worker-hang chaos for the parallel engine.

    ``victims`` maps a unit name to ``(action, times)`` where ``action``
    is ``"kill"`` (SIGKILL own process mid-unit) or ``"hang"`` (sleep
    ``hang_seconds``, far past any supervised deadline).  Each victim
    strikes on its first ``times`` *attempts*, counted across processes
    through ``token_dir`` (one ``O_CREAT|O_EXCL`` token per strike) —
    so with ``times=1`` the requeued attempt succeeds, and with
    ``times >= max_worker_kills`` the unit proves quarantine.

    Strikes are a no-op outside a pool worker: a degraded-serial
    fallback or a serial equivalence run executes the same wrapped
    callables untouched, which is exactly the "byte-identical to
    serial" contract the chaos matrix asserts.
    """

    def __init__(
        self,
        token_dir: PathLike,
        *,
        victims: Dict[str, Tuple[str, int]],
        hang_seconds: float = 60.0,
    ) -> None:
        for name, (action, times) in victims.items():
            if action not in ("kill", "hang"):
                raise ConfigurationError(
                    f"unknown chaos action {action!r} for {name!r}"
                )
            if times < 1:
                raise ConfigurationError(
                    f"chaos victim {name!r} needs times >= 1, got {times}"
                )
        self.token_dir = Path(token_dir)
        self.token_dir.mkdir(parents=True, exist_ok=True)
        self.victims = dict(victims)
        self.hang_seconds = hang_seconds

    @classmethod
    def sample(
        cls,
        names: Sequence[str],
        token_dir: PathLike,
        *,
        kills: int = 0,
        hangs: int = 0,
        seed: int = 0,
        times: int = 1,
        hang_seconds: float = 60.0,
    ) -> "ChaosPlan":
        """Pick ``kills`` + ``hangs`` victim units deterministically."""
        names = list(names)
        if kills + hangs > len(names):
            raise ConfigurationError(
                f"cannot pick {kills + hangs} victims from "
                f"{len(names)} units"
            )
        chosen = random.Random(seed).sample(names, kills + hangs)
        victims: Dict[str, Tuple[str, int]] = {}
        for name in chosen[:kills]:
            victims[name] = ("kill", times)
        for name in chosen[kills:]:
            victims[name] = ("hang", times)
        return cls(token_dir, victims=victims, hang_seconds=hang_seconds)

    def strike(self, name: str) -> None:
        """Maybe kill or hang the calling process (pool workers only)."""
        victim = self.victims.get(name)
        if victim is None:
            return
        from repro.parallel.pool import in_worker

        if not in_worker():
            return  # never take down the parent / degraded-serial run
        action, times = victim
        for attempt in range(times):
            token = self.token_dir / f"{action}-{_token_slug(name)}-{attempt}"
            try:
                fd = os.open(str(token), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue  # this strike already happened (earlier attempt)
            os.close(fd)
            if action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(self.hang_seconds)
            return

    def wrap(self, name: str, fn: Callable[[], T]) -> Callable[[], T]:
        """Wrap a unit callable so it strikes (maybe) before running."""

        def chaotic() -> T:
            self.strike(name)
            return fn()

        chaotic.__name__ = getattr(fn, "__name__", "chaotic")
        return chaotic

    def strikes_delivered(self) -> int:
        """How many strikes actually fired (tokens consumed)."""
        return sum(1 for _ in self.token_dir.iterdir())


def corrupt_cache_entry(root: PathLike, *, seed: int = 0) -> Path:
    """Flip one seeded byte of one result-cache entry; returns its path."""
    entries = sorted(Path(root).rglob("*.json"))
    if not entries:
        raise ConfigurationError(f"{root}: no cache entries to corrupt")
    rng = random.Random(seed)
    path = entries[rng.randrange(len(entries))]
    flip_byte(path, rng.randrange(path.stat().st_size), mask=0x40)
    return path


__all__ = [
    "ChaosPlan",
    "FaultPlan",
    "InjectedFault",
    "TransientInjectedFault",
    "check",
    "corrupt_cache_entry",
    "corrupt_trace",
    "flaky",
    "flip_byte",
    "inject",
    "truncate_file",
]
