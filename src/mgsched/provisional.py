"""Optimal provisional schedules over the pending buffer at a time step.

A provisional schedule at time t assigns pending packets to the slots
t, t+1, ... assuming no further arrivals; the optimal one maximizes total
value.  Packets are kept in canonical order: increasing deadline, ties broken
by decreasing value, then by id for full determinism.

optimal_provisional_schedule rebuilds the schedule from scratch and is the
reference oracle; IncrementalSchedule keeps the same schedule up to date as
packets arrive, leave and time advances, and is what the simulator uses.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        return sum(p.value for p, _ in self.entries)

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


def feasible(packets: Iterable[Packet], t: int) -> bool:
    """Slot-feasibility of a set at time t: after sorting by deadline, the
    i-th packet (1-indexed) must satisfy deadline >= t + i - 1."""
    deadlines = sorted(p.deadline for p in packets)
    return all(d >= t + i for i, d in enumerate(deadlines))


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
    for p in sorted(pending, key=lambda p: (-p.value, p.deadline, p.id)):
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

    - insert: a packet closes a circuit iff some deadline D >= its own is
      tight.  The circuit is the newcomer plus every scheduled packet with
      deadline <= the first such D; its lowest-priority member is rejected.
    - remove: deleting a scheduled packet unties every deadline from its own
      on.  The best rejected packet with a deadline past the last tight
      deadline below it then fits, and takes the freed place.
    - advance: time t -> t+1 inserts a top-priority phantom with deadline t,
      then rejected packets past their deadline expire.

    Only bounded deadlines are ever tight, a deadline's last packet is its
    lowest and its first packet its highest, so an event looks at one packet
    per distinct bounded deadline: O(G log B) for G such deadlines and B
    pending packets, plus the list shifts.  Packets must be alive at `time`.
    """

    def __init__(self, time: int):
        self.time = time
        # The schedule in canonical order, as parallel lists.
        self._keys: list[tuple[float, float, int]] = []
        self._deadlines: list[float] = []
        self._values: list[float] = []
        self._packets: list[Packet] = []
        self._groups: list[float] = []  # distinct bounded deadlines scheduled, ascending
        # Rejected packets by deadline, each list sorted by (-value, id).
        self._rejected: dict[float, list[tuple[float, int, Packet]]] = {}
        self._rejected_deadlines: list[float] = []  # sorted keys of _rejected
        self._rejected_count = 0

    @property
    def pending_count(self) -> int:
        """Pending packets, scheduled or rejected."""
        return len(self._packets) + self._rejected_count

    @property
    def values(self) -> list[float]:
        """Values of the scheduled packets in canonical order (do not mutate)."""
        return self._values

    @property
    def total_value(self) -> float:
        # Left to right in canonical order, as ProvisionalSchedule sums.
        return sum(self._values)

    def snapshot(self) -> ProvisionalSchedule:
        """The schedule as optimal_provisional_schedule would return it."""
        t = self.time
        return ProvisionalSchedule(t, tuple((p, t + i) for i, p in enumerate(self._packets)))

    def pending(self) -> list[Packet]:
        """Every pending packet: the scheduled ones in canonical order, then the rejected."""
        return self._packets + [p for group in self._rejected.values() for _, _, p in group]

    def group_heads(self) -> list[Packet]:
        """First packet of each deadline (UNBOUNDED is one deadline), in order."""
        dl, packets = self._deadlines, self._packets
        heads = [packets[bisect_left(dl, d)] for d in self._groups]
        first_unbounded = bisect_left(dl, UNBOUNDED)
        if first_unbounded < len(packets):
            heads.append(packets[first_unbounded])
        return heads

    def insert(self, p: Packet) -> None:
        """Add an arriving packet, rejecting the lowest of the circuit it closes."""
        if p.deadline != UNBOUNDED:
            tight = self._first_tight(p.deadline)
            if tight is not None:
                i = self._lowest_up_to(tight)
                d, neg_value, pid = self._keys[i]
                if (-p.value, p.deadline, p.id) > (neg_value, d, pid):
                    self._reject(p)
                    return
                self._reject(self._pop(i))
        self._place(p)

    def remove(self, p: Packet) -> None:
        """Delete a pending packet; a rejected one may take a freed place."""
        key = canonical_key(p)
        i = bisect_left(self._keys, key)
        if i == len(self._keys) or self._keys[i] != key:
            group = self._rejected[p.deadline]
            group.remove((-p.value, p.id, p))
            if not group:
                self._drop_rejected_deadline(p.deadline)
            self._rejected_count -= 1
            return
        freed_after = self._last_tight_below(p.deadline)
        self._pop(i)
        best = self._best_rejected_after(freed_after)
        if best is not None:
            self._place(best)

    def advance(self) -> list[int]:
        """Move to the next step; return the ids of the packets that expire, sorted."""
        tight = self._first_tight(self.time)  # the phantom, deadline = time
        if tight is not None:
            self._reject(self._pop(self._lowest_up_to(tight)))
        self.time += 1
        # With the phantom placed, every scheduled deadline is >= time, so
        # only rejected packets expire.
        expired: list[int] = []
        rejected_deadlines = self._rejected_deadlines
        while rejected_deadlines and rejected_deadlines[0] < self.time:
            expired.extend(pid for _, pid, _ in self._rejected.pop(rejected_deadlines.pop(0)))
        self._rejected_count -= len(expired)
        expired.sort()
        return expired

    def _first_tight(self, d: float) -> float | None:
        """First tight deadline >= d, if any."""
        groups, dl, limit = self._groups, self._deadlines, self.time - 1
        for g in groups[bisect_left(groups, d):]:
            if g - bisect_right(dl, g) == limit:
                return g
        return None

    def _last_tight_below(self, d: float) -> float:
        """Last tight deadline < d, or time - 1 (no live packet is due by then)."""
        groups, dl, limit = self._groups, self._deadlines, self.time - 1
        for g in reversed(groups[: bisect_left(groups, d)]):
            if g - bisect_right(dl, g) == limit:
                return g
        return limit

    def _lowest_up_to(self, d: float) -> int:
        """Index of the lowest-priority scheduled packet with deadline <= d."""
        keys, dl = self._keys, self._deadlines
        lowest = None
        for g in self._groups[: bisect_right(self._groups, d)]:
            i = bisect_right(dl, g) - 1  # the deadline's last packet is its lowest
            _, neg_value, pid = keys[i]
            rank = (neg_value, g, pid)
            if lowest is None or rank > lowest:
                lowest, at = rank, i
        return at

    def _best_rejected_after(self, d: float) -> Packet | None:
        """Remove and return the highest-priority rejected packet with deadline > d."""
        rejected_deadlines = self._rejected_deadlines
        best = None
        for g in rejected_deadlines[bisect_right(rejected_deadlines, d):]:
            neg_value, pid, _ = self._rejected[g][0]
            if best is None or (neg_value, g, pid) < best:
                best = (neg_value, g, pid)
        if best is None:
            return None
        g = best[1]
        group = self._rejected[g]
        p = group.pop(0)[2]
        if not group:
            self._drop_rejected_deadline(g)
        self._rejected_count -= 1
        return p

    def _place(self, p: Packet) -> None:
        key = canonical_key(p)
        i = bisect_left(self._keys, key)
        dl, d = self._deadlines, p.deadline
        if d != UNBOUNDED and (i == len(dl) or dl[i] != d) and (i == 0 or dl[i - 1] != d):
            insort(self._groups, d)
        self._keys.insert(i, key)
        dl.insert(i, d)
        self._values.insert(i, p.value)
        self._packets.insert(i, p)

    def _pop(self, i: int) -> Packet:
        dl = self._deadlines
        d = dl[i]
        del self._keys[i], dl[i], self._values[i]
        if d != UNBOUNDED and (i == len(dl) or dl[i] != d) and (i == 0 or dl[i - 1] != d):
            del self._groups[bisect_left(self._groups, d)]
        return self._packets.pop(i)

    def _reject(self, p: Packet) -> None:
        group = self._rejected.get(p.deadline)
        if group is None:
            group = self._rejected[p.deadline] = []
            insort(self._rejected_deadlines, p.deadline)
        insort(group, (-p.value, p.id, p))
        self._rejected_count += 1

    def _drop_rejected_deadline(self, d: float) -> None:
        del self._rejected[d]
        del self._rejected_deadlines[bisect_left(self._rejected_deadlines, d)]
