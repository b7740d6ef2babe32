"""Event loop and process abstraction for the discrete-event kernel.

The design follows the classic process-interaction style (SimPy-like) but is
deliberately small, allocation-light and fully deterministic:

* the event queue is a binary heap keyed by ``(time, tsched, cls, seq)``:
  ``tsched`` is the simulated instant the event was *scheduled* at, ``cls``
  is an ordering class (0 for ordinary events, 1 for network arrivals, which
  must sort after every ordinary event scheduled at the same instant), and
  ``seq`` is a per-simulator monotonically increasing counter (for class 1,
  the frame's canonical key instead; see :meth:`Simulator.schedule_keyed`).  For
  ordinary events ``tsched``/``cls`` never reorder anything relative to the
  historical ``(time, seq)`` key — ``seq`` is allocated in scheduling order
  and simulated time never decreases, so ``seq`` order refines ``tsched``
  order — but they give a network arrival a position that does not depend
  on the order other nodes' same-instant events ran in.  Only ties between
  nodes are left to the engine, and the layers above are written so that
  their order is unobservable; the tie-permutation witness
  (``tests/sim/ties.py``) reorders them per seed and demands bit-identical
  runs;
* zero-delay wake-ups (event sets, channel puts, process joins,
  ``Timeout(0)`` yields) bypass the heap entirely and go through a plain
  FIFO *ready deque*.  Because the sequence counter is allocated in
  execution order and simulated time never decreases, every entry already
  in the heap at the current instant precedes every ready entry, so
  draining ``heap-entries-at-now`` before the deque preserves the exact
  ``(time, seq)`` total order of the naive implementation.  A wake-up
  decided inside an event callback — a parked dispatcher's next message, a
  transport ack or reply, MPI data for a waiting ``recv`` — needs no event
  at all: the callback resumes the process in place
  (:meth:`Process.unpark` or :meth:`Process._resume`);
* a :class:`Process` wraps a Python generator; the generator *yields effects*
  (subclasses of :class:`Effect`), and the simulator resumes it with the
  effect's result value;
* helper generators compose with plain ``yield from``.

Only simulated time exists here; nothing reads the wall clock.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Process",
    "Effect",
    "Timeout",
    "SimError",
    "PARK",
]

# a delay or deadline must be below this: an event at infinity never runs, and a
# run that drained one would end at ``now == inf``
_INF = math.inf
# the run loop's stand-in head for an empty event queue: later than any event
_IDLE = (_INF,)


class SimError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. deadlock detection)."""


class Effect:
    """Base class for everything a process may ``yield`` to the simulator.

    Subclasses implement :meth:`apply`, which either schedules a wake-up or
    registers the process on some wait queue.  The value the process receives
    back from ``yield`` is whatever the effect's continuation passes to
    :meth:`Process._resume`, which it calls exactly once: a second resume
    raises :class:`SimError`.
    """

    def apply(self, sim: "Simulator", proc: "Process") -> None:
        raise NotImplementedError


class Timeout(Effect):
    """Suspend the yielding process for ``delay`` simulated seconds.

    ``yield Timeout(0)`` is a legal (and common) way to yield the processor
    while staying runnable at the current instant.
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if not 0 <= delay < _INF:  # NaN and inf too: a wait that never ends
            raise SimError(f"negative timeout: {delay!r}")
        self.delay = float(delay)
        self.value = value

    def apply(self, sim: "Simulator", proc: "Process") -> None:
        if self.delay == 0.0:
            sim._ready.append((proc._resume, (self.value,)))
        else:
            sim.schedule(self.delay, proc._resume, self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay!r})"


class _Park(Effect):
    """Suspend with no wake-up registered anywhere; see :data:`PARK`."""

    __slots__ = ()

    def apply(self, sim: "Simulator", proc: "Process") -> None:
        proc._parked = True


#: ``value = yield PARK`` suspends the yielding process until whoever holds
#: its :class:`Process` calls :meth:`Process.unpark` — a mailbox-free
#: hand-off for a daemon with exactly one feeder (the node dispatcher).
PARK = _Park()


class _WaitProcess(Effect):
    """Internal effect: block until another process terminates."""

    __slots__ = ("target",)

    def __init__(self, target: "Process"):
        self.target = target

    def apply(self, sim: "Simulator", proc: "Process") -> None:
        if self.target.finished:
            sim.call_soon(proc._resume, self.target.result)
        else:
            self.target._joiners.append(proc)


class Process:
    """A simulated process: a generator plus bookkeeping.

    Application code never instantiates this directly — use
    :meth:`Simulator.spawn`.  Inside a running process::

        result = yield Timeout(1.5)          # sleep
        child  = sim.spawn(other())          # start a concurrent process
        rv     = yield child.join()          # wait for termination
    """

    __slots__ = (
        "sim",
        "gen",
        "pid",
        "name",
        "finished",
        "result",
        "error",
        "_joiners",
        "_suspended",
        "_parked",
        "_send",
        "_throw",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        # pids are simulator-local: a class-global counter would make pids
        # (and therefore traces, breakdowns and report fingerprints) depend
        # on how many Simulators ran earlier in the same OS process
        self.pid = next(sim._pids)
        self.name = name or f"proc-{self.pid}"
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._joiners: list[Process] = []
        self._suspended = True  # waiting for its one wake-up (first: the spawn)
        self._parked = False  # suspended on PARK, see unpark()
        self._send = gen.send
        self._throw = gen.throw

    # -- public API ---------------------------------------------------------

    def join(self) -> Effect:
        """Effect that blocks the yielding process until this one finishes."""
        return _WaitProcess(self)

    def unpark(self, value: Any = None, exc: Optional[BaseException] = None) -> bool:
        """Resume a process suspended on :data:`PARK` with ``value`` — or by
        throwing ``exc`` into it — *now*.

        Returns ``False``, having done nothing, if the process is not parked
        (not started yet, waiting on something else, or finished).  The
        wake-up is synchronous — the generator runs inside the caller's event
        instead of costing a ready-deque event of its own, as the transport's
        answer and MPI-data wake-ups do — so call it from an event callback,
        not from a process.
        """
        if not self._parked:
            return False
        self._parked = False
        self._resume(value, exc)
        return True

    # -- engine internals ----------------------------------------------------

    def _resume(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if not self._suspended:
            state = "finished" if self.finished else "running"
            raise SimError(f"process {self.name!r} resumed while {state}")
        self._suspended = False
        try:
            if exc is not None:
                effect = self._throw(exc)
            else:
                effect = self._send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate at run()
            self._finish(error=err)
            return
        self._suspended = True
        if type(effect) is Timeout:
            # inlined Timeout.apply: the single most common effect
            delay = effect.delay
            sim = self.sim
            if delay == 0.0:
                sim._ready.append((self._resume, (effect.value,)))
            else:
                sim.schedule(delay, self._resume, effect.value)
        elif isinstance(effect, Effect):
            effect.apply(self.sim, self)
        else:
            self._suspended = False  # finished: no wake-up may resume it
            self._finish(
                error=SimError(
                    f"process {self.name!r} yielded {effect!r}, expected an Effect"
                )
            )

    def _finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self.finished = True
        self.result = result
        self.error = error
        self.sim._live_processes -= 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.counter(-1, "live_processes", self.sim.now, self.sim._live_processes)
            if error is not None:
                tracer.instant(-1, "engine", "process", f"died: {self.name}", self.sim.now)
        for joiner in self._joiners:
            if error is not None:
                self.sim.call_soon(joiner._resume, None, error)
            else:
                self.sim.call_soon(joiner._resume, result)
        self._joiners.clear()
        if error is not None:
            self.sim._record_failure(self, error)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "live"
        return f"<Process {self.name} pid={self.pid} {state}>"


class Simulator:
    """The discrete-event scheduler.

    Typical usage::

        sim = Simulator()
        sim.spawn(main(), name="main")
        sim.run()
        print(sim.now)

    ``events_processed`` counts every executed callback (the sweep divides
    it by a cell's wall-clock seconds to report events/sec).

    ``queue="calendar"`` swaps the binary heap for the calendar/bucket queue
    from :mod:`repro.sim.calendar`; execution order is identical
    (property-tested), only the data structure changes.  Nothing in the
    repository runs on it: the benchmark's own kernels measure it *slower*
    than the C-implemented ``heapq`` at 1e5 pending entries (2,279 vs
    1,935 ns per schedule+pop) and no cell of the matrix holds even that
    many.  It stays constructible only because the frozen benchmark's
    ``sim.kernel.calendar_1e5_ns`` builds one; it goes when a benchmark PR
    drops that kernel.
    """

    def __init__(self, queue: str = "heap") -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        # optional repro.obs.EventTracer; None (the default) is the
        # zero-overhead fast path — the run loop itself is never instrumented
        # and every other site guards on this attribute before doing any work
        self.tracer = None
        # optional repro.faults.FaultInjector, same None-default contract:
        # every hook site (switch, NIC, Node.compute) guards on this before
        # doing any work, so no plan installed means no behaviour change
        self.faults = None
        # optional repro.obs.oracle.AccessRecorder, same None-default
        # contract: memory/protocol sites record read/write digests and
        # sync edges for the consistency oracle only when installed
        self.oracle = None
        # main event queue: entries are (t, tsched, cls, seq, fn, args)
        if queue == "heap":
            self._heap: Any = []
            self._qpush = heapq.heappush
            self._qpop = heapq.heappop
        elif queue == "calendar":
            from repro.sim.calendar import CalendarQueue

            self._heap = CalendarQueue()
            self._qpush = CalendarQueue.push
            self._qpop = CalendarQueue.pop
        else:
            raise SimError(f"unknown event queue kind {queue!r}")
        # timer FIFO: entries (t, tsched, 0, seq, fn, args) with
        # non-decreasing deadlines; see schedule_timer
        self._timers: deque[tuple] = deque()
        self._cancelled: set[int] = set()  # seqs of cancelled timers behind the head
        self._ready: deque[tuple[Callable, tuple]] = deque()
        self._seq = itertools.count()
        self._pids = itertools.count()
        self._live_processes = 0
        self._failures: list[tuple[Process, BaseException]] = []
        self._running = False

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        Zero-delay events (and delays small enough to vanish in float
        addition) go on the ready deque instead of the heap; see the module
        docstring for why this preserves the ``(time, seq)`` order exactly.
        """
        if not 0 <= delay < _INF:  # NaN and inf too: an event that never runs
            raise SimError(f"cannot schedule in the past (delay={delay!r})")
        t = self.now + delay
        if t <= self.now:
            self._ready.append((fn, args))
        else:
            self._qpush(self._heap, (t, self.now, 0, next(self._seq), fn, args))

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Zero-delay fast path: exactly ``schedule(0.0, fn, *args)``.

        Skips the delay arithmetic and branch for the wake-up paths (event
        sets, channel puts, process joins, ``call_all``'s start
        hop) that are always immediate (``Timeout(0)`` appends to the same
        deque).
        """
        self._ready.append((fn, args))

    def schedule_at(self, t: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``t``.

        Exact-time twin of :meth:`schedule` for callers that track deadlines
        as absolute times (rate-limited queues): converting to a delay and
        back through float addition would perturb the instant.
        """
        if not self.now <= t < _INF:
            raise SimError(f"cannot schedule in the past (t={t!r} < now={self.now!r})")
        if t <= self.now:
            self._ready.append((fn, args))
        else:
            self._qpush(self._heap, (t, self.now, 0, next(self._seq), fn, args))

    def schedule_keyed(self, t: float, tsched: float, cls: int, key: int,
                       fn: Callable, *args: Any) -> None:
        """Schedule at absolute time ``t`` under the caller's full ordering
        key ``(t, tsched, cls, key)``.

        Used for network arrivals by the switch: ``tsched`` is the frame's
        departure instant, ``cls`` is 1 and ``key`` is its canonical
        ``(source, departure number)`` position, so the queue's own order is
        the delivery order, whatever order the sources' events ran in.
        ``key`` takes the place of the simulator's sequence counter, so it
        must be unique within ``(t, tsched, cls)`` — which is why class 1
        belongs to arrivals alone.  Always goes through the main
        event queue, even for ``t == now`` — ready-deque entries sort *after*
        all queue entries at the current instant, which is wrong for an event
        whose logical scheduling instant lies in the past.
        """
        if not self.now <= t < _INF:
            raise SimError(f"cannot schedule in the past (t={t!r} < now={self.now!r})")
        self._qpush(self._heap, (t, tsched, cls, key, fn, args))

    def schedule_timer(self, delay: float, fn: Callable, *args: Any) -> tuple:
        """Heap-free FIFO for timeout guards that usually never fire.

        Precondition: deadlines are non-decreasing.  The transport's
        retransmission timers all share one delay and ``now`` never
        decreases, so a plain FIFO holds them sorted with O(1) insertion,
        off the main queue.  Entries draw sequence numbers from the same
        counter as the main queue and the run loop merges the FIFO's head
        with the heap's by the full ``(time, tsched, cls, seq)`` key, so
        execution order is exactly the single-queue order (property-tested
        in ``tests/sim/test_engine.py``).

        Returns the handle for :meth:`cancel_timer`.  Raises
        :class:`SimError` for a deadline not after ``now`` (it would belong
        on the ready deque) or before the FIFO's tail (it would break the
        order).
        """
        t = self.now + delay
        timers = self._timers
        if not self.now < t < _INF:
            raise SimError(f"timer delay must be positive (delay={delay!r})")
        if timers and t < timers[-1][0]:
            raise SimError(
                f"timer deadline {t!r} precedes the FIFO's tail {timers[-1][0]!r}"
            )
        entry = (t, self.now, 0, next(self._seq), fn, args)
        timers.append(entry)
        return entry

    def cancel_timer(self, handle: tuple) -> None:
        """Disarm a :meth:`schedule_timer` timer: it never becomes an event.

        Never, not usually — a cancelled timer that fired as a no-op would
        still count in ``events_processed`` and move ``peek_next_time``
        (``tests/sim/test_engine.py`` pins both:
        ``test_cancelled_timers_never_become_events`` and
        ``test_cancelling_a_lane_head_moves_the_next_wakeup``).  So a timer
        behind the head is marked and dropped when the head advances past
        it, and the head is unhooked on the spot.  Cancelling a fired or
        already cancelled timer does nothing.
        """
        timers = self._timers
        if not timers or handle[3] < timers[0][3]:
            return  # fired, or dropped by an earlier cancel
        if handle is timers[0]:
            self._pop_timer()
        else:
            self._cancelled.add(handle[3])

    def _pop_timer(self) -> tuple:
        """Pop the FIFO's head and drop every cancelled timer behind it."""
        timers = self._timers
        entry = timers.popleft()
        cancelled = self._cancelled
        while timers and timers[0][3] in cancelled:
            cancelled.remove(timers.popleft()[3])
        return entry

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Create a process from a generator and make it runnable now."""
        proc = Process(self, gen, name=name)
        self._live_processes += 1
        self._ready.append((proc._resume, ()))
        tracer = self.tracer
        if tracer is not None:
            tracer.counter(-1, "live_processes", self.now, self._live_processes)
        return proc

    # -- execution -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queues drain (or ``until`` is reached).

        Returns the final simulated time.  If any process died with an
        exception the first such exception is re-raised (with the remaining
        failures attached as ``__notes__``-style context in its args).

        ``until`` boundary contract, so that repeated calls compose into one
        run:

        * ``until`` in the past (``until < self.now``) or NaN raises
          :class:`SimError` — the clock never moves backwards;
        * events scheduled *exactly at* ``until`` execute before the break;
        * ready-deque entries (zero-delay work at the current instant) are
          always drained before the clock can advance, so none are pending
          at the break;
        * if the queues drain before ``until``, the clock still advances to
          ``until`` — repeated ``run(until=...)`` calls observe a monotone
          ``self.now`` whether or not events existed in each window.
        """
        if self._running:
            raise SimError("Simulator.run() is not reentrant")
        if until is not None and not until >= self.now:
            raise SimError(
                f"run(until={until!r}) is in the past (now={self.now!r})"
            )
        self._running = True
        heap = self._heap
        timers = self._timers
        ready = self._ready
        pop = self._qpop
        popleft = ready.popleft
        pop_timer = self._pop_timer
        failures = self._failures
        now = self.now
        count = self.events_processed
        try:
            while True:
                # one comparison merges heap and FIFO into one queue, ordered
                # by (time, tsched, cls, seq); its head, if due, predates
                # (smaller seq) everything on the ready deque, so it runs first
                head = heap[0] if heap else _IDLE
                from_timer = timers and timers[0] < head
                if from_timer:
                    head = timers[0]
                t = head[0]
                if t <= now:
                    _, _, _, _, fn, args = pop_timer() if from_timer else pop(heap)
                elif ready:
                    fn, args = popleft()
                elif until is not None and t > until:
                    # the clock runs out the window, whether or not it drained
                    if until > now:
                        self.now = until
                    break
                elif head is _IDLE:
                    break
                else:
                    _, _, _, _, fn, args = pop_timer() if from_timer else pop(heap)
                    self.now = now = t
                count += 1
                fn(*args)
                if failures:
                    proc, err = failures[0]
                    raise SimError(
                        f"process {proc.name!r} died at t={self.now:.6f}"
                    ) from err
        finally:
            self._running = False
            self.events_processed = count
        return self.now

    def peek_next_time(self) -> float:
        """Earliest pending event time across heap and timers (``inf`` if idle).

        Ready-deque entries run at the current instant, so a non-empty
        ready deque reports ``now``.
        """
        if self._ready:
            return self.now
        t = float("inf")
        if self._heap:
            t = self._heap[0][0]
        if self._timers and self._timers[0][0] < t:
            t = self._timers[0][0]
        return t

    def _record_failure(self, proc: Process, error: BaseException) -> None:
        self._failures.append((proc, error))

    @property
    def live_processes(self) -> int:
        """Number of spawned processes that have not yet terminated."""
        return self._live_processes

    def all_of(self, procs: Iterable[Process]) -> Generator:
        """Helper generator: join every process in ``procs`` in order.

        Usage: ``results = yield from sim.all_of(workers)``.
        """
        results = []
        for proc in procs:
            results.append((yield proc.join()))
        return results
