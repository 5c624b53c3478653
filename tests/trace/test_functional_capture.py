"""Functional capture is exact: the timing-free machine records what the
timed machine records, and its traces replay to the timed direct run.

Trace capture runs on :class:`~repro.core.machine.FunctionalMachine`,
which has memory, forwarding, traps, heap and pools but no caches or
timing.  That is sound only because a program's event stream, loaded
values and config-invariant counters do not depend on the timing model.
This suite pins that claim two ways:

* every registered application and variant, at two line sizes: the
  functional and the timed capture agree on stream digest, checksum,
  extras and the invariant stats, and a replay of the functional trace
  reproduces the timed direct run's ``stats.dump()`` bit for bit;
* hand-built programs against the ``Machine`` API that reach the
  forwarding corners the applications rarely do -- a trap handler that
  issues references, chains longer than the hop limit, a genuine cycle,
  and sub-word accesses to forwarded words.
"""

from dataclasses import replace

import pytest

from repro.apps import APPLICATIONS, get_application
from repro.apps.base import Variant
from repro.core.errors import ForwardingCycleError
from repro.core.machine import FunctionalMachine, Machine
from repro.core.relocate import relocate
from repro.core.stats import INVARIANT_FIELDS
from repro.experiments.config import APP_SEEDS, experiment_config
from repro.trace import Trace, TraceRecorder, capture_trace, replay_trace
from repro.trace.recorder import needs_timed_capture

SCALE = 0.05
LINE_SIZES = (32, 128)


def _invariant(stats) -> dict:
    dump = stats.dump()
    return {name: dump[name] for name in INVARIANT_FIELDS}


def _app_cases():
    for name in sorted(APPLICATIONS):
        for variant in APPLICATIONS[name](scale=SCALE).variants():
            for line_size in LINE_SIZES:
                yield pytest.param(
                    name, variant, line_size,
                    id=f"{name}-{variant.value}-{line_size}B",
                )


@pytest.mark.parametrize("app_name,variant,line_size", _app_cases())
def test_functional_capture_matches_timed(app_name, variant, line_size):
    config = experiment_config(line_size)
    seed = APP_SEEDS.get(app_name, 1)
    assert not needs_timed_capture(config)
    trace, direct_from_capture = capture_trace(
        app_name, variant, config, SCALE, seed
    )
    assert direct_from_capture is None  # functional: no timed result

    recorder = TraceRecorder()
    timed = get_application(app_name, scale=SCALE, seed=seed).run(
        variant, config, observer=recorder, machine_class=Machine
    )
    _, timed_sha = recorder.finish()
    assert trace.stream_sha256 == timed_sha
    assert trace.event_count == recorder.event_count
    assert trace.has_forwarded == recorder.has_forwarded
    assert trace.checksum == timed.checksum
    assert trace.extras == timed.extras
    assert trace.captured_stats == _invariant(timed.stats)

    direct = get_application(app_name, scale=SCALE, seed=seed).run(
        variant, config
    )
    replayed = replay_trace(trace, config)
    assert replayed.stats.dump() == direct.stats.dump()
    assert replayed.checksum == direct.checksum
    assert replayed.extras == direct.extras


def test_timed_capture_still_returns_its_direct_run():
    """Configs whose behaviour needs the clock capture on the timed
    machine; their direct result comes back with the trace."""
    config = replace(experiment_config(32), events_capacity=64)
    assert needs_timed_capture(config)
    trace, direct = capture_trace(
        "health", Variant.N, config, SCALE, APP_SEEDS["health"]
    )
    assert direct is not None
    assert trace.captured_stats == _invariant(direct.stats)


# ----------------------------------------------------------------------
# Hand-built programs
# ----------------------------------------------------------------------
def _record(program, config, machine_class):
    """Run ``program(machine)`` under a recorder on a fresh machine.

    Returns ``(trace, outcome, error)``: ``outcome`` is the program's
    return value and ``error`` the exception it raised, if any (the
    trace then holds the stream up to the failing reference).
    """
    recorder = TraceRecorder()
    machine = machine_class(config)
    machine.observer = recorder
    outcome = error = None
    try:
        outcome = program(machine)
    except Exception as exc:  # compared across machines by the caller
        error = exc
    chunks, stream_sha = recorder.finish()
    trace = Trace(
        app="program",
        variant="N",
        scale=1.0,
        seed=0,
        line_size=config.hierarchy.line_size,
        line_size_sensitive=True,
        checksum=0,
        extras={},
        captured_stats=_invariant(machine.stats()),
        pool_names=recorder.pool_names,
        event_count=recorder.event_count,
        chunks=chunks,
        has_forwarded=recorder.has_forwarded,
        _stream_sha=stream_sha,
    )
    return trace, outcome, error


def _trap_program(machine):
    """A trap handler that issues references and repairs the pointer."""
    values = []
    events = []
    slot = machine.malloc(8)
    obj = machine.malloc(32)
    for index in range(4):
        machine.store(obj + 8 * index, 100 + index)
    machine.store(slot, obj)
    pool = machine.create_pool(256, "moved")
    new = pool.allocate(32)
    relocate(machine, obj, new, 4)

    def handler(m, event):
        events.append(
            (event.initial_address, event.final_address, event.hops,
             event.is_write)
        )
        m.execute(3)
        values.append(m.load(slot))
        if event.initial_address & ~31 == obj:
            m.store(slot, event.final_address & ~31)

    machine.set_trap_handler(handler)
    pointer = machine.load(slot)
    values.extend(machine.load(pointer + 8 * i) for i in range(4))
    machine.store(obj + 8, 7)  # through the stale address: traps
    values.append(machine.load(machine.load(slot) + 8))
    machine.set_trap_handler(None)
    values.append(machine.load(obj + 16))  # forwarded, no handler
    machine.prefetch(new, 2)
    values.append(machine.read_fbit(obj))
    values.append(machine.unforwarded_read(obj))
    machine.free(obj)
    return values, events


def _long_chain_program(machine):
    """Five relocations of one object: a five-hop chain."""
    obj = machine.malloc(16)
    machine.store(obj, 41)
    machine.store(obj + 8, 42)
    pool = machine.create_pool(1024, "chain")
    for _ in range(5):
        relocate(machine, obj, pool.allocate(16), 2)
    values = [machine.load(obj), machine.load(obj + 8)]
    machine.store(obj, 43)
    values.append(machine.load(obj))
    return values


def _cycle_program(machine):
    """Two words forwarding to each other: a genuine cycle."""
    first = machine.malloc(8)
    second = machine.malloc(8)
    machine.store(first, 1)
    machine.unforwarded_write(first, second, 1)
    machine.unforwarded_write(second, first, 1)
    return machine.load(first)


def _subword_program(machine):
    """1/2/4-byte loads and stores through a forwarded word."""
    obj = machine.malloc(16)
    machine.store(obj, 0x1122334455667788)
    machine.store(obj + 8, -1)  # masked to 64 bits
    pool = machine.create_pool(64, "sub")
    relocate(machine, obj, pool.allocate(16), 2)
    machine.store(obj + 4, 0xDEADBEEF, 4)
    machine.store(obj + 2, 0xABCD, 2)
    machine.store(obj + 9, 0x5A, 1)
    return [
        machine.load(obj + offset, size)
        for offset, size in ((0, 8), (4, 4), (2, 2), (1, 1), (8, 8), (9, 1),
                             (12, 4))
    ]


PROGRAMS = [
    pytest.param(_trap_program, 16, id="trap-handler-references"),
    pytest.param(_long_chain_program, 2, id="chain-beyond-hop-limit"),
    pytest.param(_subword_program, 16, id="subword-forwarded"),
]


@pytest.mark.parametrize("line_size", LINE_SIZES)
@pytest.mark.parametrize("program,hop_limit", PROGRAMS)
def test_program_capture_matches_timed(program, hop_limit, line_size):
    config = replace(experiment_config(line_size), hop_limit=hop_limit)
    functional, outcome, error = _record(program, config, FunctionalMachine)
    timed, timed_outcome, timed_error = _record(program, config, Machine)
    assert error is None and timed_error is None
    assert outcome == timed_outcome
    assert functional.stream_sha256 == timed.stream_sha256
    assert functional.captured_stats == timed.captured_stats
    assert functional.has_forwarded and timed.has_forwarded

    direct = Machine(config)
    assert program(direct) == outcome
    replayed = replay_trace(functional, config)
    assert replayed.stats.dump() == direct.stats().dump()


def test_chain_beyond_hop_limit_runs_the_cycle_check():
    config = replace(experiment_config(32), hop_limit=2)
    trace, _, _ = _record(_long_chain_program, config, FunctionalMachine)
    assert trace.captured_stats["cycle_checks"] > 0
    assert "5" in trace.captured_stats["forwarding_chain_hist"]


def test_trap_handler_saw_the_same_events():
    config = experiment_config(32)
    _, (_, events), _ = _record(_trap_program, config, FunctionalMachine)
    assert events and any(is_write for *_, is_write in events)


def test_genuine_cycle_fails_the_same_way():
    config = experiment_config(32)
    functional, _, error = _record(_cycle_program, config, FunctionalMachine)
    timed, _, timed_error = _record(_cycle_program, config, Machine)
    assert isinstance(error, ForwardingCycleError)
    assert type(timed_error) is type(error)
    assert str(timed_error) == str(error)
    assert functional.stream_sha256 == timed.stream_sha256
