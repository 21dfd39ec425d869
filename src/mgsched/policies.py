"""Online policies (MG, EDF_alpha) and the discrete-time simulator.

Both policies apply one send rule to the first packet of each pending
deadline (its head), in canonical order.  With e the first head and v_h the
top head value, it sends e if v_e >= v_h / alpha, else the first head f with
v_f >= max(v_h / alpha, beta * v_e).  MG reads the optimal provisional
schedule's heads.  EDF_alpha reads the raw buffer's, with beta = 1, so it
sends the earliest-deadline packet worth at least v_h / alpha, ties by higher
value, then id.
Greedy (send a highest-value pending packet) is MG(1, 1), so it has no
rule of its own: `mgsched --policy greedy` is an alias of that setting.
mg_select states the rule over a list of heads and is its reference; the
simulator applies it through IncrementalSchedule.step, which reads the heads
in the schedule's own per-deadline lists and picks what mg_select would.

The simulator is event-driven: it keeps one IncrementalSchedule up to date
through two events, insert for each arrival and step, which picks and sends
one packet (and also moves the clock and expires what is due), and jumps
over idle gaps by moving the empty schedule's time.  The trace keeps only
the steps that send, each as a plain row with its place in the schedule's
value log, and builds their StepRecords, and the idle rows between them,
only when they are read.  A sweep reads only a run's total value, so it
builds none.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from itertools import starmap
from operator import itemgetter
from typing import IO, Iterator, NamedTuple, Sequence

from .model import FLOAT_MAX, Frozen, Instance, Memo, Packet, json_number
from .provisional import IncrementalSchedule, values_at

# Unused here: perfbench/spans.py SITES wraps it under this module, which
# tests/test_bench_hooks.py guards.  It goes with ROADMAP item 1.
from .provisional import optimal_provisional_schedule  # noqa: F401


class PolicyKind(str, Enum):
    MG = "mg"
    EDF_ALPHA = "edf"


class PolicyParams(Frozen):
    """Policy kind plus (alpha, beta); alpha may be UNBOUNDED (math.inf).
    EDF_alpha is the send rule with beta = 1, so it takes no other beta."""

    __slots__ = ("kind", "alpha", "beta")

    def __init__(self, kind: PolicyKind, alpha: float = 1.0, beta: float = 1.0):
        # A str such as "mg" equals PolicyKind.MG, but simulate tests identity.
        if not isinstance(kind, PolicyKind):
            raise ValueError(f"kind must be a PolicyKind, got {kind!r}")
        for name, value in (("alpha", alpha), ("beta", beta)):
            if type(value) is bool or not isinstance(value, (int, float)):  # a bool would print as True
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if type(value) is not float and value > FLOAT_MAX:  # an int no float holds
                raise ValueError(f"{name} must be UNBOUNDED or at most {FLOAT_MAX!r}, got {value}")
        if not alpha >= 1:  # NaN fails too
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        if not 1 <= beta <= FLOAT_MAX:  # NaN and inf fail too
            raise ValueError(f"beta must be a finite real >= 1, got {beta}")
        if kind is PolicyKind.MG and beta > alpha:
            raise ValueError(f"MG requires beta <= alpha, got beta={beta} > alpha={alpha}")
        if kind is PolicyKind.EDF_ALPHA and beta != 1:
            raise ValueError(f"EDF_alpha has beta = 1, got beta={beta}")
        self._init(kind, alpha, beta)

    @classmethod
    def mg(cls, alpha: float, beta: float = 1.0) -> "PolicyParams":
        return cls(PolicyKind.MG, alpha, beta)

    @classmethod
    def edf(cls, alpha: float) -> "PolicyParams":
        return cls(PolicyKind.EDF_ALPHA, alpha, 1.0)

    def describe(self) -> str:
        return f"{self.kind.value}(alpha={self.alpha!r}, beta={self.beta!r})"


class EmptyBufferError(ValueError):
    pass


class StepRecord(NamedTuple):
    t: int
    sent_id: int | None
    sent_value: float
    buffer_size: int
    schedule_value: float


class SimulationTrace(NamedTuple):
    """A run's record, as simulate made it: `rows`, one (t, packet, buffer
    size, place in `changes`) per send in time order; `changes`, the
    IncrementalSchedule's value log (both simulate's own lists, not copies);
    `total_value`; and `dropped_expired`, the ids of the packets that expired.

    `sends` and `steps` are built from the rows on each read, replaying the
    log once through provisional.values_at.  The total, the counts and
    dump_trace need no build.
    """

    rows: list[tuple[int, Packet, int, int]]
    changes: list[float]
    total_value: float
    dropped_expired: tuple[int, ...]

    def _replay(self) -> Iterator[tuple]:
        """The fields of each send record, made one by one from the rows."""
        rows = self.rows
        for (t, p, size, _), value in zip(rows, values_at(self.changes, map(itemgetter(3), rows))):
            yield t, p.id, p.value, size, value

    @property
    def sends(self) -> tuple[StepRecord, ...]:
        """The steps that sent a packet, in time order."""
        return tuple(starmap(StepRecord, self._replay()))

    @property
    def steps(self) -> tuple[StepRecord, ...]:
        """Every step from t = 1 to the last send, with the steps between
        sends synthesized as idle rows."""
        steps = []
        t = 1
        for s in self.sends:
            steps += [StepRecord(idle, None, 0.0, 0, 0.0) for idle in range(t, s.t)]
            steps.append(s)
            t = s.t + 1
        return tuple(steps)

    @property
    def sent_count(self) -> int:
        return len(self.rows)


def mg_select(heads: Sequence[Packet], params: PolicyParams) -> Packet:
    """Apply the send rule to the heads of the pending deadlines, in canonical
    order: the provisional schedule's for MG, the raw buffer's for EDF_alpha.
    A deadline's first packet has its highest value, so e, the top value v_h
    and the first packet past the threshold are all heads.

    This is the rule's reference.  simulate does not call it: it applies the
    same rule in IncrementalSchedule.step, which the tests hold to it.
    """
    if not heads:
        raise EmptyBufferError("no heads: the buffer is empty")
    e = heads[0]
    top = max([p.value for p in heads])
    h_over_alpha = top / params.alpha  # 0.0 for alpha UNBOUNDED
    if e.value >= h_over_alpha:
        return e
    threshold = max(h_over_alpha, params.beta * e.value)
    for p in heads:
        if p.value >= threshold:
            return p
    # alpha >= beta guarantees h itself qualifies.
    raise AssertionError("no qualifying packet; alpha/beta invariant broken")


def simulate(inst: Instance, params: PolicyParams) -> SimulationTrace:
    """Run one policy over an instance and record the steps that send.

    Each step t: admit arrivals with release == t, then (buffer permitting)
    send the packet mg_select would pick, then let unsendable packets expire.
    The optimal provisional schedule is one IncrementalSchedule, updated by
    insert and by one step call per send, never rebuilt; while the buffer is
    empty the run jumps to the next release, so the cost follows the packet
    count, not the release span.
    Work-conserving and fully deterministic.

    The run ends when the buffer is empty and nothing is left to release, so
    every packet is either sent or in `dropped_expired`.  No bound on t is
    needed: past the last deadline nothing is alive, and a buffer still busy
    after max release + n steps would have sent more than n packets.
    """
    arrivals: dict[int, list[Packet]] = {}
    for p in inst.packets:
        group = arrivals.get(p.release)
        if group is None:  # setdefault would build a list for every packet
            arrivals[p.release] = [p]
        else:
            group.append(p)
    releases = sorted(arrivals, reverse=True)  # the next release is last

    schedule = IncrementalSchedule(1)
    changes = schedule.changes
    rows: list[tuple[int, Packet, int, int]] = []
    dropped: list[int] = []

    step, alpha, beta = schedule.step, params.alpha, params.beta
    scheduled_heads = params.kind is PolicyKind.MG
    t = 1
    while releases or schedule.pending_count:
        if releases and releases[-1] == t:
            for p in arrivals[releases.pop()]:
                schedule.insert(p)
        if not schedule.pending_count:
            t = releases[-1]  # jump the idle gap; SimulationTrace fills in its rows
            schedule.time = t
            continue

        size, at = schedule.pending_count, len(changes)
        chosen, expired = step(alpha, beta, scheduled_heads)
        rows.append((t, chosen, size, at))
        if expired:
            dropped.extend(expired)
        t += 1

    total = math.fsum([row[1].value for row in rows])  # exactly rounded, as OPT's value is
    return SimulationTrace(rows, changes, total, tuple(dropped))


def dump_trace(trace: SimulationTrace, fp: IO[str]) -> None:
    """JSON-lines trace: one record per step, idle ones included, then a summary line.

    Each line is json.dumps(obj, sort_keys=True) of its record, byte for byte;
    the step lines are formatted directly, which is several times faster than
    the encoder, and streamed from the trace's rows, so memory does not grow
    with the trace and no StepRecord is built.  Each distinct exact
    float sent value is converted once, as dump_instance converts values;
    the schedule values seldom repeat and are converted on every line.
    """
    # An idle row is StepRecord(t, None, 0.0, 0, 0.0): constant but for its t.
    idle = '{"buffer_size": 0, "schedule_value": 0.0, "sent_id": null, "sent_value": 0.0, "t": %d}\n'
    text = Memo(json_number)
    t = 1
    for at, sent_id, sent_value, buffer_size, schedule_value in trace._replay():
        if at > t:
            fp.writelines(map(idle.__mod__, range(t, at)))
        fp.write(
            f'{{"buffer_size": {buffer_size}, "schedule_value": {json_number(schedule_value)}, '
            f'"sent_id": {sent_id}, '
            f'"sent_value": {text[sent_value] if type(sent_value) is float else json_number(sent_value)}, "t": {at}}}\n'
        )
        t = at + 1
    summary = {
        "totalValue": trace.total_value,
        "sentCount": trace.sent_count,
        "droppedCount": len(trace.dropped_expired),
    }
    fp.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
