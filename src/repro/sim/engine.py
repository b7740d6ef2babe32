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
  (:meth:`Process.unpark`, or :meth:`Process._resume` with the
  registration's token);
* a :class:`Process` wraps a Python generator; the generator *yields effects*
  (subclasses of :class:`Effect`), and the simulator resumes it with the
  effect's result value;
* every wake-up carries the *resumption token* (the process's suspension
  epoch) captured when the wait was registered; a token that no longer
  matches means the process has since been resumed by something else (e.g.
  an :meth:`Process.interrupt`) and the stale wake-up is dropped;
* helper generators compose with plain ``yield from``.

Only simulated time exists here; nothing reads the wall clock.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Process",
    "Effect",
    "Timeout",
    "SimError",
    "Interrupt",
    "PARK",
]


class SimError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. deadlock detection)."""


class Interrupt(Exception):
    """Thrown *into* a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Effect:
    """Base class for everything a process may ``yield`` to the simulator.

    Subclasses implement :meth:`apply`, which either schedules a wake-up or
    registers the process on some wait queue.  The value the process receives
    back from ``yield`` is whatever the effect's continuation passes to
    :meth:`Process._resume`.  Registrations must capture ``proc._epoch`` and
    pass it back as the wake-up's token so stale wake-ups are dropped.
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
        if delay < 0:
            raise SimError(f"negative timeout: {delay!r}")
        self.delay = float(delay)
        self.value = value

    def apply(self, sim: "Simulator", proc: "Process") -> None:
        if self.delay == 0.0:
            sim._ready.append((proc._resume, (self.value, None, proc._epoch)))
        else:
            sim.schedule(self.delay, proc._resume, self.value, None, proc._epoch)

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
            sim.call_soon(proc._resume, self.target.result, None, proc._epoch)
        else:
            self.target._joiners.append((proc, proc._epoch))


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
        "_interrupt_pending",
        "_suspended",
        "_epoch",
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
        self._joiners: list[tuple[Process, int]] = []
        self._interrupt_pending: Optional[Interrupt] = None
        self._suspended = True  # not yet resumed for the first time
        self._epoch = 0  # suspension counter; wake-up tokens must match it
        self._parked = False  # suspended on PARK, see unpark()
        self._send = gen.send
        self._throw = gen.throw

    # -- public API ---------------------------------------------------------

    def join(self) -> Effect:
        """Effect that blocks the yielding process until this one finishes."""
        return _WaitProcess(self)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into this process at its next resumption.

        The wake-up that delivers the interrupt carries the current
        resumption token, so whichever of {interrupt wake-up, awaited
        wake-up} fires first wins and the loser is dropped — the interrupted
        process never sees a stale value meant for a previous yield.
        """
        if self.finished:
            return
        self._interrupt_pending = Interrupt(cause)
        self._parked = False  # the interrupt, not unpark(), ends a PARK
        # Ensure the process wakes even if it was waiting on a queue that may
        # never be signalled.
        self.sim.call_soon(self._resume, None, None, self._epoch)

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
        self._resume(value, exc, self._epoch)
        return True

    # -- engine internals ----------------------------------------------------

    def _resume(self, value: Any = None, exc: Optional[BaseException] = None,
                token: Optional[int] = None) -> None:
        if self.finished:
            return
        if token is not None and token != self._epoch:
            return  # stale wake-up from an earlier suspension
        self._epoch += 1
        if self._interrupt_pending is not None and exc is None:
            exc = self._interrupt_pending
            self._interrupt_pending = None
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
                sim._ready.append((self._resume, (effect.value, None, self._epoch)))
            else:
                sim.schedule(delay, self._resume, effect.value, None, self._epoch)
        elif isinstance(effect, Effect):
            effect.apply(self.sim, self)
        else:
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
        for joiner, token in self._joiners:
            if error is not None:
                self.sim.call_soon(joiner._resume, None, error, token)
            else:
                self.sim.call_soon(joiner._resume, result, None, token)
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
        # optional repro.obs.Metrics registry, same contract as the tracer:
        # None means zero overhead, installed means record-only
        self.metrics = None
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
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay!r})")
        t = self.now + delay
        if t <= self.now:
            self._ready.append((fn, args))
        else:
            self._qpush(self._heap, (t, self.now, 0, next(self._seq), fn, args))

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Zero-delay fast path: exactly ``schedule(0.0, fn, *args)``.

        Skips the delay arithmetic and branch for the wake-up paths (event
        sets, channel puts, process joins, interrupts, ``call_all``'s start
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
        if t < self.now:
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
        if t < self.now:
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
        if t <= self.now:
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
        self._ready.append((proc._resume, (None, None, 0)))
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

        * ``until`` in the past (``until < self.now``) raises
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
        if until is not None and until < self.now:
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
            while heap or ready or timers:
                # queue/timer entries at the current instant predate (smaller
                # seq) everything on the ready deque — run them first, merged
                # by (time, tsched, cls, seq) so heap and FIFO act as one queue
                if heap and heap[0][0] <= now:
                    if timers and timers[0] < heap[0]:
                        _, _, _, _, fn, args = pop_timer()
                    else:
                        _, _, _, _, fn, args = pop(heap)
                elif timers and timers[0][0] <= now:
                    _, _, _, _, fn, args = pop_timer()
                elif ready:
                    fn, args = popleft()
                else:
                    from_timer = not heap or (timers and timers[0] < heap[0])
                    t = timers[0][0] if from_timer else heap[0][0]
                    if until is not None and t > until:
                        if until > now:
                            self.now = until
                        break
                    if from_timer:
                        _, _, _, _, fn, args = pop_timer()
                    else:
                        _, _, _, _, fn, args = pop(heap)
                    self.now = now = t
                count += 1
                fn(*args)
                if failures:
                    proc, err = failures[0]
                    raise SimError(
                        f"process {proc.name!r} died at t={self.now:.6f}"
                    ) from err
            else:
                # queues drained: the clock still runs out the window
                if until is not None and until > now:
                    self.now = until
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
