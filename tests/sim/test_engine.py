"""Unit tests for the discrete-event kernel."""

import bisect
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import PARK, Simulator, Timeout, SimError
from repro.sim.engine import Effect


def test_empty_run_finishes_at_zero():
    sim = Simulator()
    assert sim.run() == 0.0
    assert sim.now == 0.0


def test_single_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield Timeout(2.5)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_timeout_returns_value():
    sim = Simulator()
    out = []

    def proc():
        out.append((yield Timeout(1.0, value="hello")))

    sim.spawn(proc())
    sim.run()
    assert out == ["hello"]


def test_negative_timeout_rejected():
    for delay in (-1.0, float("nan")):
        with pytest.raises(SimError):
            Timeout(delay)


def test_infinite_timeout_rejected():
    """A wait that never ends is refused where it is made, not drained into
    a run that reports ``inf`` as its finishing time."""
    with pytest.raises(SimError, match="negative timeout: inf"):
        Timeout(math.inf)
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        yield Timeout(math.inf)

    sim.spawn(proc())
    with pytest.raises(SimError, match="died at t=1.0") as excinfo:
        sim.run()
    assert str(excinfo.value.__cause__) == "negative timeout: inf"
    assert sim.now == 1.0


def test_fifo_order_for_simultaneous_events():
    sim = Simulator()
    order = []

    def proc(tag):
        yield Timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.spawn(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_interleaving_is_deterministic():
    def run_once():
        sim = Simulator()
        trace = []

        def a():
            for i in range(3):
                yield Timeout(1.0)
                trace.append(("a", sim.now))

        def b():
            for i in range(3):
                yield Timeout(1.5)
                trace.append(("b", sim.now))

        sim.spawn(a())
        sim.spawn(b())
        sim.run()
        return trace

    assert run_once() == run_once()
    assert run_once() == [
        ("a", 1.0),
        ("b", 1.5),
        ("a", 2.0),
        ("b", 3.0),  # b's wake-up was scheduled at t=1.5, before a's at t=2.0
        ("a", 3.0),
        ("b", 4.5),
    ]


def test_fork_and_join():
    sim = Simulator()
    results = []

    def child(n):
        yield Timeout(n)
        return n * 10

    def parent():
        c1 = sim.spawn(child(1))
        c2 = sim.spawn(child(2))
        results.append((yield c2.join()))
        results.append((yield c1.join()))

    sim.spawn(parent())
    sim.run()
    assert results == [20, 10]
    assert sim.now == 2.0


def test_join_already_finished_process():
    sim = Simulator()
    out = []

    def quick():
        yield Timeout(0)
        return "done"

    def waiter(proc):
        yield Timeout(5.0)
        out.append((yield proc.join()))

    p = sim.spawn(quick())
    sim.spawn(waiter(p))
    sim.run()
    assert out == ["done"]


def test_all_of_helper():
    sim = Simulator()
    collected = []

    def child(n):
        yield Timeout(n)
        return n

    def parent():
        procs = [sim.spawn(child(n)) for n in (3, 1, 2)]
        collected.extend((yield from sim.all_of(procs)))

    sim.spawn(parent())
    sim.run()
    assert collected == [3, 1, 2]


def test_exception_in_process_propagates_from_run():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise ValueError("boom")

    sim.spawn(bad())
    with pytest.raises(SimError) as excinfo:
        sim.run()
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_yielding_non_effect_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(SimError):
        sim.run()


def test_run_until_stops_clock():
    sim = Simulator()
    ticks = []

    def ticker():
        while True:
            yield Timeout(1.0)
            ticks.append(sim.now)

    sim.spawn(ticker())
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_park_is_resumed_synchronously_and_only_while_parked():
    sim = Simulator()
    got = []

    def daemon():
        while True:
            got.append((yield PARK))
            yield Timeout(1.0)

    proc = sim.spawn(daemon())
    assert proc.unpark("early") is False  # not started yet
    sim.run()
    events = sim.events_processed
    assert proc.unpark("a") is True
    assert got == ["a"]  # ran inside the call: no event, no run() needed
    assert sim.events_processed == events
    assert proc.unpark("b") is False  # now waiting on its Timeout
    sim.run()
    assert got == ["a"] and proc.unpark("c") is True and got == ["a", "c"]


def test_a_second_wake_up_raises_instead_of_being_dropped():
    """One registration, one resume: a wake-up delivered to a process that
    already finished is a kernel error naming the process, not a no-op."""
    sim = Simulator()

    class WakeTwice(Effect):
        def apply(self, sim, proc):
            sim.call_soon(proc._resume)
            sim.schedule(1.0, proc._resume)

    def once():
        yield WakeTwice()

    sim.spawn(once(), name="woken-twice")
    with pytest.raises(SimError, match="woken-twice"):
        sim.run()
    assert sim.now == 1.0


def test_live_process_count():
    sim = Simulator()

    def child():
        yield Timeout(1.0)

    sim.spawn(child())
    sim.spawn(child())
    assert sim.live_processes == 2
    sim.run()
    assert sim.live_processes == 0


def test_schedule_in_past_rejected():
    sim = Simulator()
    nan = float("nan")
    for schedule in (
        lambda: sim.schedule(-0.1, lambda: None),
        lambda: sim.schedule(nan, lambda: None),  # pre-fix: ran at now == nan
        lambda: sim.schedule_at(nan, lambda: None),
        lambda: sim.schedule_keyed(nan, 0.0, 1, 0, lambda: None),
        lambda: sim.schedule_timer(nan, lambda: None),
    ):
        with pytest.raises(SimError):
            schedule()


def test_schedule_at_infinity_rejected():
    """An event at infinity never runs; a run that drained one would end at
    ``now == inf``.  Every way in refuses it, with the past-schedule message."""
    sim = Simulator()
    inf = math.inf
    for schedule, message in (
        (lambda: sim.schedule(inf, lambda: None), "cannot schedule in the past"),
        (lambda: sim.schedule_at(inf, lambda: None), "cannot schedule in the past"),
        (lambda: sim.schedule_keyed(inf, 0.0, 1, 0, lambda: None),
         "cannot schedule in the past"),
        (lambda: sim.schedule_timer(inf, lambda: None), "timer delay must be positive"),
    ):
        with pytest.raises(SimError, match=message):
            schedule()
    assert sim.run() == 0.0 and sim.events_processed == 0


def test_nested_yield_from_composition():
    sim = Simulator()
    out = []

    def inner():
        yield Timeout(1.0)
        return "inner-done"

    def middle():
        rv = yield from inner()
        yield Timeout(1.0)
        return rv + "+middle"

    def outer():
        rv = yield from middle()
        out.append((rv, sim.now))

    sim.spawn(outer())
    sim.run()
    assert out == [("inner-done+middle", 2.0)]


def test_process_return_value_via_stopiteration():
    sim = Simulator()
    holder = []

    def child():
        yield Timeout(0)
        return {"k": 1}

    def parent():
        p = sim.spawn(child())
        holder.append((yield p.join()))

    sim.spawn(parent())
    sim.run()
    assert holder == [{"k": 1}]


def test_events_processed_counter():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        yield Timeout(0)

    sim.spawn(proc())
    sim.run()
    assert sim.events_processed > 0


# -- pid determinism (simulator-local counter) -----------------------------------


def test_pids_are_simulator_local():
    """A second Simulator in the same OS process must hand out the same pids
    as a fresh process would — the old class-global ``Process._ids`` counter
    made run N's pids depend on how many processes ran before it."""

    def one_run():
        sim = Simulator()

        def worker():
            yield Timeout(1.0)

        pids = [sim.spawn(worker()).pid for _ in range(3)]
        sim.run()
        return pids

    first, second = one_run(), one_run()
    assert first == second == [0, 1, 2]


# -- run(until=...) boundary semantics -------------------------------------------


def test_run_until_in_past_raises_and_clock_never_rewinds():
    sim = Simulator()

    def worker():
        yield Timeout(10.0)

    sim.spawn(worker())
    sim.run(until=5.0)
    assert sim.now == 5.0
    for until in (3.0, float("nan")):
        with pytest.raises(SimError):
            sim.run(until=until)  # pre-fix: silently rewound the clock to 3.0
        assert sim.now == 5.0


def test_run_until_advances_clock_when_drained():
    """If the queues drain before ``until`` the clock still runs out the
    window — pre-fix it stopped at the last event time, so repeated windowed
    runs saw a non-monotone `now` across idle windows."""
    sim = Simulator()

    def worker():
        yield Timeout(1.0)

    sim.spawn(worker())
    assert sim.run(until=5.0) == 5.0
    assert sim.now == 5.0
    # an idle window over an already-empty queue advances too
    assert sim.run(until=7.5) == 7.5


def test_run_until_executes_events_exactly_at_until():
    sim = Simulator()
    fired = []

    def worker():
        yield Timeout(3.5)
        fired.append(sim.now)

    sim.spawn(worker())
    sim.run(until=3.5)
    assert fired == [3.5]
    assert sim.now == 3.5


def test_run_until_windows_compose_into_a_full_run():
    """Driving the clock through ``until`` windows must execute exactly the
    events a single run() would, in order — including the ticks that fall
    on a window's end."""

    def ticks(windowed):
        sim = Simulator()
        seen = []

        def ticker():
            while sim.now < 2.9:
                yield Timeout(0.5)
                seen.append(sim.now)

        sim.spawn(ticker())
        if windowed:
            w = 0.0
            while sim.peek_next_time() != float("inf"):
                w = max(w + 0.5, sim.now)  # every tick lands on a window end
                sim.run(until=w)
                assert sim.now == w  # monotone, even through idle windows
        else:
            sim.run()
        return seen

    assert ticks(windowed=True) == ticks(windowed=False)


# -- schedule_timer: one FIFO of equal-delay timers --------------------------------

TIMER_DELAY = 1.0  # every timer's delay, as for the transport's retransmissions


def test_schedule_timer_rejects_deadlines_that_break_the_fifo():
    """A timer must fall after ``now`` and no earlier than the FIFO's tail;
    the engine refuses anything else instead of rerouting it to the heap."""
    sim = Simulator()
    sim.run(until=1.0)
    for delay in (0.0, -0.5, 1e-20):  # 1e-20 vanishes in now + delay
        with pytest.raises(SimError, match="positive"):
            sim.schedule_timer(delay, lambda: None)
    sim.schedule_timer(1.0, lambda: None)
    with pytest.raises(SimError, match="tail"):
        sim.schedule_timer(0.5, lambda: None)
    sim.schedule_timer(1.0, lambda: None)  # an equal deadline is in order
    assert len(sim._timers) == 2 and not sim._heap and not sim._ready


def _mixed_timer_workload(use_timer_fifo, ops):
    """Drive one simulator through ``ops``; return the exact firing order."""
    sim = Simulator()
    fired = []

    def driver():
        for i, (kind, delay) in enumerate(ops):
            if kind == "advance":
                yield Timeout(delay)
            elif kind == "timer" and use_timer_fifo:
                sim.schedule_timer(delay, fired.append, (i, "t"))
            else:
                sim.schedule(delay, fired.append, (i, kind[0]))

    sim.spawn(driver())
    sim.run()
    return fired


def test_timer_order_matches_single_heap_reference():
    """Property: timers of one delay interleaved with arbitrary plain events
    fire in exactly the order a single (time, seq) heap would.  Both runs
    allocate sequence numbers from the same counter in the same order, so
    the firing orders must be equal element for element."""
    rng = random.Random(0xBACC0FF)
    delays = [0.05, 0.1, 0.2, 0.4, TIMER_DELAY, TIMER_DELAY, 1.6, 0.05 * 1.37]
    for trial in range(25):
        ops = []
        for _ in range(rng.randint(5, 60)):
            r = rng.random()
            if r < 0.5:
                ops.append(("timer", TIMER_DELAY))
            elif r < 0.7:
                ops.append(("plain", rng.choice(delays)))
            else:
                ops.append(("advance", rng.choice([0.0, 0.01, 0.06, 0.31])))
        fifo = _mixed_timer_workload(True, ops)
        reference = _mixed_timer_workload(False, ops)
        assert fifo == reference, f"divergence on trial {trial}: {ops!r}"


class _SortedQueueSim:
    """The naive engine the run loop must equal: one sorted list of every
    pending callback keyed ``(t, tsched, cls, seq)``, zero delays included,
    and a cancelled timer dropped when it reaches the head."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._queue, self._cancelled = [], set()
        self._seq = itertools.count()

    def schedule(self, delay, fn, *args):
        self.schedule_keyed(self.now + delay, self.now, 0, next(self._seq), fn, *args)

    def call_soon(self, fn, *args):
        self.schedule(0.0, fn, *args)

    def schedule_keyed(self, t, tsched, cls, key, fn, *args):
        bisect.insort(self._queue, (t, tsched, cls, key, fn, args))

    def schedule_timer(self, delay, fn, *args):
        entry = (self.now + delay, self.now, 0, next(self._seq), fn, args)
        bisect.insort(self._queue, entry)
        return entry

    def cancel_timer(self, handle):
        self._cancelled.add(handle)

    def spawn(self, gen):
        def resume(value=None):
            try:
                effect = gen.send(value)
            except StopIteration:
                return
            self.schedule(effect.delay, resume, effect.value)

        self.call_soon(resume)

    def run(self, until=None):
        queue = self._queue
        while queue and (until is None or queue[0][0] <= until):
            entry = queue.pop(0)
            if entry in self._cancelled:
                continue
            self.now = entry[0]
            self.events_processed += 1
            entry[4](*entry[5])
        if until is not None and until > self.now:
            self.now = until
        return self.now


# what a callback does: ("soon"|"delay"|"keyed"|"keyed_now"|"timer"|"cancel"|"proc", arg)
_loop_ops = st.lists(
    st.tuples(
        st.sampled_from(["soon", "delay", "delay", "keyed", "keyed_now",
                         "timer", "timer", "cancel", "proc"]),
        st.integers(0, 7),
    ),
    min_size=1, max_size=12,
)
# 1e-20 vanishes in ``now + delay`` once now >= 1e-4, not before
_LOOP_DELAYS = (0.0, 1e-20, 5e-324, 0.125, 0.25, 0.25, 0.5, 1.5)


def _drive_loop(sim, ops, windows):
    """Run a self-extending callback program on ``sim`` through the windows
    ``run(until=w)`` and a final ``run()``; return the log and, after every
    window, ``(now, events_processed, entries logged)``."""
    log, marks, handles = [], [], []
    ids, keys = itertools.count(1), itertools.count()

    def proc(i):
        yield Timeout(0)
        log.append((sim.now, i, "p0"))
        yield Timeout(_LOOP_DELAYS[i % len(_LOOP_DELAYS)])
        log.append((sim.now, i, "p1"))

    def cb(i):
        log.append((sim.now, i))
        if i > 40:
            return  # the program ends: every callback from here only logs
        for k in (0, 1):
            kind, arg = ops[(i + k) % len(ops)]
            new, now = next(ids), sim.now
            if kind == "soon":
                sim.call_soon(cb, new)
            elif kind == "delay":
                sim.schedule(_LOOP_DELAYS[arg], cb, new)
            elif kind == "keyed":  # a frame leaving now, arriving later
                sim.schedule_keyed(now + 0.25 * (arg + 1), now, 1, next(keys), cb, new)
            elif kind == "keyed_now" and now > 0:  # departed in the past, due now
                sim.schedule_keyed(now, now / 2, 1, next(keys), cb, new)
            elif kind == "timer":
                handles.append(sim.schedule_timer(TIMER_DELAY, cb, new))
            elif kind == "cancel" and handles:  # the FIFO's head or any other
                sim.cancel_timer(handles[0 if arg == 0 else arg % len(handles)])
            elif kind == "proc":
                sim.spawn(proc(new))

    sim.call_soon(cb, 0)
    for until in windows:
        sim.run(until=until)
        marks.append((sim.now, sim.events_processed, len(log)))
    sim.run()
    marks.append((sim.now, sim.events_processed, len(log)))
    return log, marks


@settings(max_examples=150, deadline=None)
@given(ops=_loop_ops,
       windows=st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.25, 2.0, 4.0]),
                        max_size=5).map(sorted))
@example(ops=[("timer", 0), ("timer", 1), ("cancel", 0), ("soon", 0)], windows=[1.0])
@example(ops=[("timer", 0), ("timer", 0), ("cancel", 1), ("proc", 0)], windows=[0.0, 2.0])
@example(ops=[("keyed_now", 0), ("delay", 1), ("delay", 2), ("proc", 4)], windows=[0.25])
def test_run_loop_matches_a_single_sorted_queue(ops, windows):
    """Property: the run loop (ready deque, heap and timer FIFO merged by one
    head comparison) and the queue pushes inlined in ``Process._resume`` run
    every callback in the order of one sorted ``(t, tsched, cls, seq)``
    queue, with the same ``events_processed`` and ``now`` after each chained
    ``run(until=...)`` window.  The program mixes ``Timeout(0)``,
    ``call_soon``, sub-ulp delays, arrivals keyed at ``t == now`` from an
    earlier departure, and timers cancelled at the FIFO's head and behind it."""
    assert _drive_loop(Simulator(), ops, windows) == \
        _drive_loop(_SortedQueueSim(), ops, windows)


# -- cancellable timers: a cancelled timer never becomes an event ------------------

EVENT_DELAYS = [0.5, TIMER_DELAY, 2.0]


def _run_timer_program(ops, never_arm=None):
    """Run ``ops`` — ``(gap, op, arg)``: advance the clock by ``gap``, then arm
    a timer, schedule a plain event, or cancel the ``arg``-th timer of the
    program.  With ``never_arm`` (a set of op indices) those timers are not
    armed and cancels do nothing: the reference a cancelling run must equal.

    Returns the simulator, the ``(time, op index)`` firing sequence and the op
    indices of the timers cancelled while armed and not yet fired."""
    sim = Simulator()
    fired, handles, cancelled_live = [], {}, set()
    timers = [i for i, (_, op, _) in enumerate(ops) if op == "timer"]

    def fire(i):
        fired.append((sim.now, i))

    def step(i, op, arg):
        if op == "timer":
            if never_arm is None or i not in never_arm:
                handles[i] = sim.schedule_timer(TIMER_DELAY, fire, i)
        elif op == "event":
            sim.schedule(EVENT_DELAYS[arg % len(EVENT_DELAYS)], fire, i)
        elif never_arm is None and timers:
            target = timers[arg % len(timers)]
            if target in handles:  # armed earlier in the program
                if all(i != target for _, i in fired):
                    cancelled_live.add(target)
                sim.cancel_timer(handles[target])

    t = 0.0
    for i, (gap, op, arg) in enumerate(ops):
        t += gap
        sim.schedule_at(t, step, i, op, arg)
    sim.run()
    return sim, fired, cancelled_live


_timer_ops = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.7]),
        st.sampled_from(["timer", "timer", "event", "cancel", "cancel"]),
        st.integers(0, 40),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_timer_ops)
# head, middle and tail of the FIFO, then the whole FIFO
@example(ops=[(0.0, "timer", 0)] * 3 + [(0.1, "cancel", 0), (0.0, "event", 0)])
@example(ops=[(0.0, "timer", 0)] * 3 + [(0.1, "cancel", 1), (0.0, "timer", 0)])
@example(ops=[(0.0, "timer", 0)] * 3 + [(0.1, "cancel", 2), (0.0, "timer", 0)])
@example(ops=[(0.0, "timer", 0)] * 3 + [(0.1, "cancel", k) for k in (1, 0, 2)])
# cancel after the timer fired, and the same timer cancelled twice
@example(ops=[(0.0, "timer", 0), (0.0, "timer", 0), (1.1, "cancel", 0), (0.0, "cancel", 1),
              (0.0, "cancel", 1)])
def test_cancelled_timers_never_become_events(ops):
    """Property: any interleaving of ``schedule`` / ``schedule_timer`` /
    ``cancel_timer`` executes exactly what the same program does with the
    cancelled timers never armed — same ``(time, callback)`` sequence, same
    ``events_processed`` — and leaves no timer or cancellation mark behind."""
    sim, fired, cancelled = _run_timer_program(ops)
    ref, ref_fired, _ = _run_timer_program(ops, never_arm=cancelled)
    assert fired == ref_fired
    assert not cancelled & {i for _, i in fired}
    assert sim.events_processed == ref.events_processed
    assert not sim._cancelled and not sim._timers


def test_cancelling_a_lane_head_moves_the_next_wakeup():
    """The head is unhooked on the spot, so ``peek_next_time`` never reports
    a cancelled timer."""
    sim = Simulator()
    first = sim.schedule_timer(1.0, lambda: None)
    sim.run(until=0.5)
    sim.schedule_timer(1.0, lambda: None)
    assert sim.peek_next_time() == 1.0
    sim.cancel_timer(first)
    assert sim.peek_next_time() == 1.5
    assert sim.run() == 1.5 and sim.events_processed == 1


# -- caller-keyed events: the queue's order is the caller's key ---------------------

_keyed_entries = st.lists(
    st.tuples(
        st.sampled_from([0.5, 1.0, 1.0, 2.5]),  # t
        st.sampled_from([0.0, 0.25, 0.25, 0.5]),  # tsched
        st.sampled_from([(0, 7), (3, 0), (3, 1), (12, 5)]),  # (src, departure#)
    ),
    max_size=40, unique=True,
)


@pytest.mark.parametrize("queue", ["heap", "calendar"])
@settings(max_examples=100, deadline=None)
@given(entries=_keyed_entries, plain=st.lists(st.sampled_from([0.5, 1.0, 2.5]), max_size=10))
def test_keyed_events_pop_in_callers_key_order(queue, entries, plain):
    """Property: class-1 events pushed in any order under caller keys run in
    ``(t, tsched, 1, key)`` order — push order plays no part — and after every
    ordinary event of the same instant scheduled no later than their
    ``tsched`` (here: all of them, scheduled at 0)."""
    sim = Simulator(queue=queue)
    ran = []
    for t, tsched, (src, dep) in entries:
        key = (src << 40) + dep
        sim.schedule_keyed(t, tsched, 1, key, ran.append, (t, tsched, 1, key))
    for i, t in enumerate(plain):
        sim.schedule_at(t, ran.append, (t, 0.0, 0, i))
    sim.run()
    assert ran == sorted(ran) and len(ran) == len(entries) + len(plain)
