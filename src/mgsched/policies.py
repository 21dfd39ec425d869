"""Online policies (MG, EDF_alpha) and the discrete-time simulator.

MG reads the optimal provisional schedule at each step and sends the first
packet f in canonical order with v_f >= max(v_h / alpha, beta * v_e), where e
is the schedule's first packet and h its first highest-value packet; if
v_e >= v_h / alpha it sends e outright.  A deadline's first packet has its
highest value, so e, v_h and f are all read from the schedule's first packet
of each deadline: mg_select takes that list of heads.  EDF_alpha works on the
raw buffer, of which it needs only the first packet of each deadline.  Both
selectors raise EmptyBufferError on an empty list.
Greedy (send a highest-value pending packet) is MG(1, 1), so it has no
selector of its own: `mgsched --policy greedy` is an alias of that setting.

The simulator is event-driven: it keeps one IncrementalSchedule up to date
through arrivals, sends, expiries and time steps, and jumps over idle gaps.
The trace stores only the steps that send; the idle rows are synthesized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterator, Sequence

from .model import UNBOUNDED, Instance, Packet
from .provisional import IncrementalSchedule, canonical_key

# Unused here: perfbench/spans.py SITES wraps it under this module, which
# tests/test_bench_hooks.py guards.  It goes with ROADMAP item 1.
from .provisional import optimal_provisional_schedule  # noqa: F401


class PolicyKind(str, Enum):
    MG = "mg"
    EDF_ALPHA = "edf"


@dataclass(frozen=True)
class PolicyParams:
    """Selector choice plus (alpha, beta); alpha may be UNBOUNDED (math.inf)."""

    kind: PolicyKind
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not self.alpha >= 1:  # NaN fails too
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.beta < 1 or not math.isfinite(self.beta):
            raise ValueError(f"beta must be a finite real >= 1, got {self.beta}")
        if self.kind is PolicyKind.MG and self.beta > self.alpha:
            raise ValueError(f"MG requires beta <= alpha, got beta={self.beta} > alpha={self.alpha}")

    @classmethod
    def mg(cls, alpha: float, beta: float = 1.0) -> "PolicyParams":
        return cls(PolicyKind.MG, alpha, beta)

    @classmethod
    def edf(cls, alpha: float) -> "PolicyParams":
        return cls(PolicyKind.EDF_ALPHA, alpha, 1.0)

    def describe(self) -> str:
        a = "inf" if self.alpha == UNBOUNDED else repr(self.alpha)
        return f"{self.kind.value}(alpha={a}, beta={self.beta!r})"


class EmptyBufferError(ValueError):
    pass


@dataclass(frozen=True)
class StepRecord:
    t: int
    sent_id: int | None
    sent_value: float
    buffer_size: int
    schedule_value: float


@dataclass(frozen=True)
class SimulationTrace:
    sends: tuple[StepRecord, ...]  # the steps that sent a packet, in time order
    total_value: float
    dropped_expired: tuple[int, ...]

    def iter_steps(self) -> Iterator[StepRecord]:
        """Every step from t = 1 to the last send; a step between sends is idle."""
        t = 1
        for s in self.sends:
            for idle in range(t, s.t):
                yield StepRecord(idle, None, 0.0, 0, 0.0)
            yield s
            t = s.t + 1

    @property
    def steps(self) -> tuple[StepRecord, ...]:
        """The per-step trace, with the idle rows synthesized on each call."""
        return tuple(self.iter_steps())

    @property
    def sent_ids(self) -> tuple[int, ...]:
        return tuple(s.sent_id for s in self.sends)

    @property
    def sent_count(self) -> int:
        return len(self.sends)


def mg_select(heads: Sequence[Packet], params: PolicyParams) -> Packet:
    """Apply the MG send rule to a provisional schedule's group heads: the
    first scheduled packet of each deadline, in canonical order.

    Within a deadline the first packet has the highest value, so e, the top
    value v_h and the first packet past the threshold are all heads.
    """
    if not heads:
        raise EmptyBufferError("provisional schedule is empty")
    e = heads[0]
    top = max(p.value for p in heads)
    h_over_alpha = 0.0 if params.alpha == UNBOUNDED else top / params.alpha
    if e.value >= h_over_alpha:
        return e
    threshold = max(h_over_alpha, params.beta * e.value)
    for p in heads:
        if p.value >= threshold:
            return p
    # alpha >= beta guarantees h itself qualifies.
    raise AssertionError("no qualifying packet; alpha/beta invariant broken")


def edf_alpha_select(pending: Sequence[Packet], alpha: float) -> Packet:
    """Earliest-deadline pending packet with value >= (max pending value) / alpha.

    Ties by decreasing value, then id.  Operates on the raw buffer, not the
    provisional schedule.
    """
    if not pending:
        raise EmptyBufferError("no pending packets")
    top = max(p.value for p in pending)
    threshold = 0.0 if alpha == UNBOUNDED else top / alpha
    eligible = [p for p in pending if p.value >= threshold]
    return min(eligible, key=canonical_key)


def simulate(inst: Instance, params: PolicyParams) -> SimulationTrace:
    """Run one policy over an instance and record the steps that send.

    Each step t: admit arrivals with release == t, then (buffer permitting)
    send the selector's packet, then let unsendable packets expire.  The
    optimal provisional schedule is one IncrementalSchedule, updated per
    event, never rebuilt; while the buffer is empty the run jumps to the next
    release, so the cost follows the packet count, not the release span.
    Work-conserving and fully deterministic.

    The run ends when the buffer is empty and nothing is left to release, so
    every packet is either sent or in `dropped_expired`.  No bound on t is
    needed: past the last deadline nothing is alive, and a buffer still busy
    after max release + n steps would have sent more than n packets.
    """
    arrivals: dict[int, list[Packet]] = {}
    for p in inst.packets:
        arrivals.setdefault(p.release, []).append(p)
    releases = sorted(arrivals, reverse=True)  # the next release is last

    schedule = IncrementalSchedule(1)
    sends: list[StepRecord] = []
    dropped: list[int] = []
    total = 0.0

    t = 1
    while releases or schedule.pending_count:
        if releases and releases[-1] == t:
            for p in arrivals[releases.pop()]:
                schedule.insert(p)
        if not schedule.pending_count:
            t = releases[-1]  # jump the idle gap; SimulationTrace fills in its rows
            schedule = IncrementalSchedule(t)
            continue

        if params.kind is PolicyKind.MG:
            chosen = mg_select(schedule.group_heads(), params)
        else:
            # A deadline's first packet has its highest value and comes first
            # in canonical order, so the heads hold both the top value and
            # the earliest eligible packet.
            chosen = edf_alpha_select(schedule.heads(), params.alpha)

        sends.append(StepRecord(t, chosen.id, chosen.value, schedule.pending_count, schedule.total_value))
        total += chosen.value
        schedule.remove(chosen)
        dropped.extend(schedule.advance())
        t += 1

    return SimulationTrace(tuple(sends), total, tuple(dropped))


def dump_trace(trace: SimulationTrace, fp: IO[str]) -> None:
    """JSON-lines trace: one record per step, idle ones included, then a summary line."""
    import json

    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(obj, sort_keys=True), built once
    for s in trace.iter_steps():
        fp.write(
            encode(
                {
                    "t": s.t,
                    "sent_id": s.sent_id,
                    "sent_value": s.sent_value,
                    "buffer_size": s.buffer_size,
                    "schedule_value": s.schedule_value,
                }
            )
            + "\n"
        )
    fp.write(
        encode(
            {
                "summary": {
                    "totalValue": trace.total_value,
                    "sentCount": trace.sent_count,
                    "droppedCount": len(trace.dropped_expired),
                }
            }
        )
        + "\n"
    )
