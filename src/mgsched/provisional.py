"""Optimal provisional schedules over the pending buffer at a time step.

A provisional schedule at time t assigns pending packets to the slots
t, t+1, ... assuming no further arrivals; the optimal one maximizes total
value.  Packets are kept in canonical order: increasing deadline, ties broken
by decreasing value, then by id for full determinism.

optimal_provisional_schedule rebuilds the schedule from scratch and is the
reference oracle; IncrementalSchedule keeps the same schedule up to date as
packets arrive, leave and time advances, and is what the simulator uses.

Packets with the same deadline lie in the same feasibility constraints, so the
schedule keeps a prefix of each deadline's pending packets taken in (-value,
id) order.  IncrementalSchedule therefore stores, per distinct pending
deadline, those packets in that order and the length of the scheduled prefix;
an event costs O(G) for G distinct pending deadlines.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice
from typing import Sequence

from .model import UNBOUNDED, Packet


class EmptyScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class ProvisionalSchedule:
    """Canonically ordered slot assignment of a value-maximal pending subset."""

    time: int
    entries: tuple[tuple[Packet, int], ...]  # (packet, slot), slot = time + index

    @property
    def total_value(self) -> float:
        return math.fsum(p.value for p, _ in self.entries)

    @property
    def packets(self) -> tuple[Packet, ...]:
        return tuple(p for p, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def group_heads(self) -> list[Packet]:
        """First packet of each deadline (UNBOUNDED is one deadline), in order."""
        heads: list[Packet] = []
        for p, _ in self.entries:
            if not heads or heads[-1].deadline != p.deadline:
                heads.append(p)
        return heads


def canonical_key(p: Packet) -> tuple[float, float, int]:
    # UNBOUNDED sorts after every bounded deadline; within it, by -value, id.
    return (p.deadline, -p.value, p.id)


def _priority(p: Packet) -> tuple[float, float, int]:
    """The greedy's strict order: higher value first, then earlier deadline, then id."""
    return (-p.value, p.deadline, p.id)


def _units(value: float) -> int:
    """`value` as an exact whole number of 2**-1074, the smallest float step."""
    n, d = value.as_integer_ratio()  # d is a power of two, at most 2**1074
    return n << (1075 - d.bit_length())


def _latest_free(parent: list[int], s: int) -> int:
    """Latest free slot index <= s, or -1; path-compressed chase."""
    root = s
    while parent[root] != root:
        root = parent[root]
    while parent[s] != root:
        parent[s], s = root, parent[s]
    return root


def optimal_provisional_schedule(pending: Sequence[Packet], t: int) -> ProvisionalSchedule:
    """Value-maximal slot-feasible subset of `pending` at time t, canonical order.

    Greedy by decreasing value (ties by earlier deadline then smaller id) with
    an incremental feasibility test: each accepted packet takes the latest
    free slot not after its deadline.  All pending packets must already be
    released (release <= t) and unexpired (deadline >= t).

    This rebuilds from scratch on every call.  It is the reference oracle that
    the tests hold IncrementalSchedule to; the simulator does not call it.
    """
    n = len(pending)
    if n == 0:
        return ProvisionalSchedule(t, ())
    # Slot indices 0..n-1 stand for t..t+n-1; index n is the "no slot" root.
    parent = list(range(n + 1))
    accepted: list[Packet] = []
    for p in sorted(pending, key=_priority):
        limit = n - 1 if p.deadline == UNBOUNDED else min(int(p.deadline) - t, n - 1)
        slot = _latest_free(parent, limit + 1) - 1  # parent[i+1] tracks slot i
        if slot >= 0:
            parent[slot + 1] = slot
            accepted.append(p)
    accepted.sort(key=canonical_key)
    return ProvisionalSchedule(t, tuple((p, t + i) for i, p in enumerate(accepted)))


def e_h_of_heads(heads: Sequence[Packet]) -> tuple[Packet, Packet]:
    """e and h from a schedule's group heads.  A deadline's first packet has
    its highest value, so h is the first head of the highest value."""
    if not heads:
        raise EmptyScheduleError("provisional schedule is empty")
    top = max(p.value for p in heads)
    return heads[0], next(p for p in heads if p.value == top)


class IncrementalSchedule:
    """The optimal provisional schedule of a changing buffer, kept up to date.

    The schedule is the greedy's basis of the scheduling matroid under the
    strict order (-value, deadline, id), so it is unique, and every event is a
    matroid update that keeps it equal to
    optimal_provisional_schedule(pending, time).  A deadline d is tight when
    exactly d - time + 1 scheduled packets have deadline <= d.

    Packets with the same deadline lie in exactly the same constraints, so
    the greedy schedules a prefix of each deadline's pending packets taken in
    (-value, id) order: once it rejects one, it rejects every later one.  The
    store is therefore one list per distinct pending deadline, in that order,
    with a count of its scheduled prefix.

    - insert: a packet behind a rejected packet of its own deadline is
      rejected.  Otherwise it closes a circuit iff some deadline D >= its own
      is tight; the circuit is the newcomer plus every scheduled packet with
      deadline <= the first such D, and its lowest member is rejected.
    - remove: deleting a scheduled packet unties every deadline from its own
      on.  The best rejected packet with a deadline past the last tight
      deadline below it then fits, and takes the freed place.
    - advance: time t -> t+1 inserts a top-priority phantom with deadline t,
      then rejected packets past their deadline expire.

    A deadline's last scheduled packet is its lowest and its first rejected
    packet its best; rejecting one or re-admitting one moves a count by one.
    So an event costs O(G) for G distinct pending deadlines, plus a bisection
    and a list shift within the packet's own deadline.  Packets must be alive
    at `time`.

    The schedule's value is kept as one exact integer, in units of 2**-1074,
    that changes whenever a packet joins or leaves the scheduled set; it is
    rounded once when read, so it equals math.fsum of the scheduled values
    on every Python version.
    """

    def __init__(self, time: int):
        self.time = time
        self.pending_count = 0  # pending packets, scheduled or rejected
        # Per distinct pending deadline, ascending (UNBOUNDED last): its
        # packets in (-value, id) order, their values in _units, and how many
        # of them, from the front, are scheduled.
        self._deadlines: list[float] = []
        self._packets: list[list[Packet]] = []
        self._values: list[list[int]] = []
        self._counts: list[int] = []
        self._value = 0  # the scheduled packets' values, summed in _units

    @property
    def total_value(self) -> float:
        return self._value / (1 << 1074)

    def snapshot(self) -> ProvisionalSchedule:
        """The schedule as optimal_provisional_schedule would return it."""
        t = self.time
        scheduled = chain.from_iterable(islice(g, n) for g, n in zip(self._packets, self._counts))
        return ProvisionalSchedule(t, tuple((p, t + i) for i, p in enumerate(scheduled)))

    def heads(self) -> list[Packet]:
        """First packet of each pending deadline, scheduled or rejected, in order."""
        return [g[0] for g in self._packets]

    def group_heads(self) -> list[Packet]:
        """First packet of each deadline (UNBOUNDED is one deadline), in order."""
        return [g[0] for g, n in zip(self._packets, self._counts) if n]

    def insert(self, p: Packet) -> None:
        """Add an arriving packet, rejecting the lowest of the circuit it closes."""
        dl, d = self._deadlines, p.deadline
        j = bisect_left(dl, d)
        if j == len(dl) or dl[j] != d:
            dl.insert(j, d)
            self._packets.insert(j, [])
            self._values.insert(j, [])
            self._counts.insert(j, 0)
        i = bisect_left(self._packets[j], _priority(p), key=_priority)
        units = _units(p.value)
        self._packets[j].insert(i, p)
        self._values[j].insert(i, units)
        self.pending_count += 1
        if i > self._counts[j]:  # behind a rejected packet of its deadline
            return
        tight = None if d == UNBOUNDED else self._tight(j)[1]
        self._counts[j] += 1
        self._value += units
        if tight is not None:
            self._reject_lowest_through(tight)

    def remove(self, p: Packet) -> None:
        """Delete a pending packet; a rejected one may take a freed place."""
        j = bisect_left(self._deadlines, p.deadline)
        group = self._packets[j]
        i = bisect_left(group, _priority(p), key=_priority)
        units = self._values[j].pop(i)
        del group[i]
        self.pending_count -= 1
        if i < self._counts[j]:
            self._counts[j] -= 1
            self._value -= units
            if sum(self._counts) < self.pending_count:  # some packet is rejected
                best = self._best_rejected_after(self._tight(j)[0])
                if best is not None:
                    self._value += self._values[best][self._counts[best]]
                    self._counts[best] += 1
        if not group:
            del self._deadlines[j], self._packets[j], self._values[j], self._counts[j]

    def advance(self) -> list[int]:
        """Move to the next step; return the ids of the packets that expire, sorted."""
        tight = self._tight(0)[1]  # the phantom, deadline = time, is due first
        if tight is not None:
            self._reject_lowest_through(tight)
        self.time += 1
        # With the phantom placed, every scheduled deadline is >= time, so
        # only rejected packets expire, whole deadlines at a time.
        expired: list[int] = []
        dl = self._deadlines
        while dl and dl[0] < self.time:
            del dl[0], self._values[0], self._counts[0]
            expired.extend(q.id for q in self._packets.pop(0))
        self.pending_count -= len(expired)
        expired.sort()
        return expired

    def _tight(self, j: int) -> tuple[int, int | None]:
        """Indices of the last tight deadline before index j (-1 if none) and
        of the first tight deadline from index j on (None if none)."""
        below, used, limit = -1, 0, self.time - 1
        for k, (d, n) in enumerate(zip(self._deadlines, self._counts)):
            used += n
            if used == d - limit:  # never for UNBOUNDED
                if k >= j:
                    return below, k
                below = k
        return below, None

    def _reject_lowest_through(self, j: int) -> None:
        """Reject the lowest-priority scheduled packet with deadline index up
        to j: the last scheduled packet of some deadline."""
        groups = zip(self._packets[: j + 1], self._counts)
        k = max((_priority(g[n - 1]), k) for k, (g, n) in enumerate(groups) if n)[1]
        self._counts[k] -= 1
        self._value -= self._values[k][self._counts[k]]

    def _best_rejected_after(self, j: int) -> int | None:
        """Index of the deadline after index j holding the highest-priority
        rejected packet (the first rejected packet of some deadline), if any."""
        groups = zip(self._packets[j + 1 :], self._counts[j + 1 :])
        firsts = [(_priority(g[n]), k) for k, (g, n) in enumerate(groups, j + 1) if n < len(g)]
        return min(firsts)[1] if firsts else None
