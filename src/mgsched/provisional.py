"""Optimal provisional schedules over the pending buffer at a time step.

A provisional schedule at time t assigns pending packets to the slots
t, t+1, ... assuming no further arrivals; the optimal one maximizes total
value.  It is a tuple of the scheduled packets in canonical order (increasing
deadline, ties broken by decreasing value, then by id for full determinism),
and the packet at index i takes slot t + i.

optimal_provisional_schedule rebuilds the schedule from scratch and is the
reference oracle; IncrementalSchedule keeps the same schedule up to date
through two events, a packet's arrival (insert) and the send that ends a step
(step), and is what the simulator uses.  Its step applies the policies' send
rule to the per-deadline lists in place and sends the head it picks.

Packets with the same deadline lie in the same feasibility constraints, so the
schedule keeps a prefix of each deadline's pending packets taken in (-value,
id) order.  IncrementalSchedule therefore stores, per distinct pending
deadline, one list of entries (-value, id, packet) in that order and the
length of its scheduled prefix, plus a running count of scheduled packets; an
event costs at most O(G) for G distinct pending deadlines, and a send of a
scheduled packet of the first pending deadline costs O(1) besides the list
edits.  Insert bisects the entries in C, with no key function.

The schedule's value is a log: each change to the scheduled set appends the
value it adds (a packet's value) or removes (its entry's -value).  values_at
folds the log into one exact integer, in units (whole multiples of 2**-1074),
and rounds it once at each position it is asked for, so each value equals
math.fsum of the values scheduled then; that is how the simulator's trace
reads the value at each send without paying for it while the run goes on.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .model import UNBOUNDED, Memo, Packet


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


_UNIT_SCALE = 1 << 1074  # units per 1.0


def values_at(changes: list[float], positions: Iterable[int]) -> Iterator[float]:
    """The scheduled value after changes[:pos] of an IncrementalSchedule's
    log, for each of the non-decreasing `positions`: the exact sum of the
    changes, rounded once, so math.fsum of the values scheduled then."""
    to_units = Memo(_units).__getitem__
    units = start = 0
    for stop in positions:
        units += sum(map(to_units, changes[start:stop]))
        start = stop
        yield units / _UNIT_SCALE


def _latest_free(parent: list[int], s: int) -> int:
    """Latest free slot index <= s, or -1; path-compressed chase."""
    root = s
    while parent[root] != root:
        root = parent[root]
    while parent[s] != root:
        parent[s], s = root, parent[s]
    return root


def optimal_provisional_schedule(pending: Sequence[Packet], t: int) -> tuple[Packet, ...]:
    """Value-maximal slot-feasible subset of `pending` at time t, canonical order.

    Greedy by decreasing value (ties by earlier deadline then smaller id) with
    an incremental feasibility test: each accepted packet takes the latest
    free slot not after its deadline.  All pending packets must already be
    released (release <= t) and unexpired (deadline >= t).

    This rebuilds from scratch on every call.  It is the reference oracle that
    the tests hold IncrementalSchedule to; the simulator does not call it.
    """
    n = len(pending)
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
    return tuple(accepted)


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
    store is therefore one list per distinct pending deadline, of entries
    (-value, id, packet) in that order, with a count of its scheduled prefix.
    Values are finite floats, which compare exactly, so the keys order the
    packets as their exact values do.  Ids are unique, so bisecting a list
    with the probe (-value, id) never compares two packets.  A running count
    of scheduled packets tells whether any pending packet is rejected, and
    skips the scan for a tight deadline when fewer packets are scheduled
    than there are slots up to the first deadline it would look at.

    - insert: a packet behind a rejected packet of its own deadline is
      rejected.  Otherwise it closes a circuit iff some deadline D >= its own
      is tight; the circuit is the newcomer plus every scheduled packet with
      deadline <= the first such D, and its lowest member is rejected.
    - step at time t sends a head f: f leaves, the clock moves to t+1, and
      rejected packets due at t expire.  At t+1 a deadline D has D - t
      slots.  One scan finds T1 and B, the first and the last tight
      deadline: below d_f if f was scheduled, anywhere if not.
      - A scheduled f and no such T1: the next schedule is S - f.  Every
        deadline from d_f on lost f, so it fits in one slot fewer, and every
        deadline below d_f had a slot to spare.  A rejected packet r was
        rejected at a tight deadline D >= d_r, which is then at least d_f,
        so D stays tight at t+1; r still closes a circuit, made of packets
        that all outranked it at t, and stays rejected.  Sending the first
        scheduled packet always falls here, and when it lies in the first
        pending deadline no scan is made at all.
      - A scheduled f below a tight T1: deleting f frees a place past B,
        which the best rejected packet with a deadline past B takes; the
        lost slot t then closes the circuit through T1 (as a top-priority
        packet due at t would), so the lowest scheduled packet with deadline
        <= T1 is rejected.  T1 <= B, so neither change moves what the other
        reads.
      - A rejected f leaves the schedule as it is; only the lost slot t
        rejects the lowest scheduled packet through T1.

    A deadline's last scheduled packet is its lowest and its first rejected
    packet its best; rejecting one or re-admitting one moves a count by one.
    So an event costs at most O(G) for G distinct pending deadlines, plus a
    bisection and a list shift within the packet's own deadline.  Packets
    must be alive at `time`.  An empty schedule holds nothing but its time,
    so the simulator sets `time` to jump an idle gap.

    `changes` logs the scheduled value: a packet that joins the scheduled
    set appends its value, one that leaves appends its entry's -value.  The
    events never turn a value into units; values_at does that when the log
    is read.
    """

    def __init__(self, time: int):
        self.time = time
        self.pending_count = 0  # pending packets, scheduled or rejected
        # Per distinct pending deadline, ascending (UNBOUNDED last): its
        # entries (-value, id, packet) in that order, and how many of them,
        # from the front, are scheduled.
        self._deadlines: list[float] = []
        self._entries: list[list[tuple[float, int, Packet]]] = []
        self._counts: list[int] = []
        self._scheduled = 0  # sum(self._counts)
        self.changes: list[float] = []  # the value log, append-only

    def snapshot(self) -> tuple[Packet, ...]:
        """The schedule as optimal_provisional_schedule would return it."""
        return tuple(e[2] for g, n in zip(self._entries, self._counts) for e in islice(g, n))

    def insert(self, p: Packet) -> None:
        """Add an arriving packet, rejecting the lowest of the circuit it closes."""
        key = -p.value
        dl, d = self._deadlines, p.deadline
        j = bisect_left(dl, d)
        self.pending_count += 1
        if j < len(dl) and dl[j] == d:
            group = self._entries[j]
            i = bisect_left(group, (key, p.id))
            group.insert(i, (key, p.id, p))
            if i > self._counts[j]:  # behind a rejected packet of its deadline
                return
        else:
            dl.insert(j, d)
            self._entries.insert(j, [(key, p.id, p)])
            self._counts.insert(j, 0)
        # No deadline from d on is tight while fewer packets are scheduled
        # than there are slots up to d; that holds for UNBOUNDED too.
        tight = None if self._scheduled < d - self.time + 1 else self._tight(j, len(dl))[0]
        self._counts[j] += 1
        self._scheduled += 1
        self.changes.append(p.value)
        if tight is not None:
            self._reject_lowest_through(tight)

    def step(self, alpha: float, beta: float, scheduled_heads: bool) -> tuple[Packet, list[int]]:
        """Apply the send rule to the heads, send the head it picks in slot
        `time`, move to the next step, and return the packet sent with the
        ids of the packets that expire, sorted.

        The heads are the first entries of the deadlines with a scheduled
        packet (scheduled_heads, as MG reads them) or of every pending
        deadline (as EDF_alpha does); the pick is mg_select(heads, ...)'s.
        Both read the same first keys past e:
        - The greedy keeps the top pending packet, so the top head value is
          the top of every deadline's first key.
        - A rejected packet r due after a scheduled e is worth at most v_e.
          Were it worth more, the slots up to some tight deadline D >= d_r
          would have been full of packets outranking r when the greedy
          rejected r, and e, due by D and taken later, would be rejected
          too.  So MG's threshold, above v_e, skips no head it would send.
        Most steps skip most of that work, and three guards say where:
        - with alpha UNBOUNDED, v_h / alpha is 0.0 and e is always sent, so
          the top head is not read at all;
        - the scan for a tight deadline runs only when as many packets are
          scheduled as the first pending deadline has slots, since no
          deadline is tight with fewer;
        - when no deadline is due, the step returns an empty expired list
          without a loop or a sort.
        The buffer must not be empty.
        """
        dl, entries, counts = self._deadlines, self._entries, self._counts
        j = 0
        if scheduled_heads:
            while not counts[j]:
                j += 1
        # With alpha UNBOUNDED, h / alpha is 0.0 and e is sent: the top head
        # is read only when alpha is finite.
        if alpha < UNBOUNDED:
            h_over_alpha = -min(entries)[0][0] / alpha  # ids differ, so no comparison reaches a packet
            e_value = entries[j][0][2].value
            if e_value < h_over_alpha:
                threshold = max(h_over_alpha, beta * e_value)
                for j in range(j + 1, len(entries)):
                    if entries[j][0][2].value >= threshold:
                        break
                else:  # alpha >= beta guarantees the top head qualifies
                    raise AssertionError("no qualifying packet; alpha/beta invariant broken")
        group = entries[j]
        key, _, chosen = group.pop(0)
        self.pending_count -= 1
        scheduled = counts[j] > 0
        if scheduled:
            counts[j] -= 1
            self._scheduled -= 1
            self.changes.append(key)
        if not group:
            del dl[j], entries[j], counts[j]
        # A rejected head's lost slot `time` acts as a top packet due then,
        # so a tight deadline anywhere counts; a scheduled head's only below
        # it.  No deadline is tight while fewer packets are scheduled than
        # the first has slots, so then _tight is not called.
        hi = j if scheduled else len(dl)
        if hi and self._scheduled >= dl[0] - self.time + 1:
            first, last = self._tight(0, hi)
            if first is not None:
                if scheduled and self._scheduled < self.pending_count:
                    best = self._best_rejected_after(last)
                    if best is not None:
                        self.changes.append(entries[best][counts[best]][2].value)
                        counts[best] += 1
                        self._scheduled += 1
                self._reject_lowest_through(first)
        time = self.time = self.time + 1
        if not dl or dl[0] >= time:  # nothing is due: the common step
            return chosen, []
        # Every scheduled deadline is now >= time, so only rejected packets
        # expire, whole deadlines at a time, and the scheduled count stays.
        expired: list[int] = []
        while dl and dl[0] < time:
            del dl[0], counts[0]
            expired.extend(e[1] for e in entries.pop(0))
        self.pending_count -= len(expired)
        expired.sort()
        return chosen, expired

    def _tight(self, lo: int, hi: int) -> tuple[int | None, int]:
        """Indices of the first and the last tight deadline in [lo, hi), or
        (None, -1) if there is none.  Each caller first checks that enough
        packets are scheduled for some deadline in range to be tight."""
        limit = self.time - 1
        first, last = None, -1
        used = 0
        for k, d, n in zip(range(hi), self._deadlines, self._counts):
            used += n
            if used == d - limit and k >= lo:  # never for UNBOUNDED
                if first is None:
                    first = k
                last = k
        return first, last

    def _reject_lowest_through(self, j: int) -> None:
        """Reject the lowest-priority scheduled packet with deadline index up
        to j: the last scheduled packet of some deadline."""
        # The lowest has the highest -value; on a tie, the later deadline.
        lowest, worst = -1, None
        for k, group, n in zip(range(j + 1), self._entries, self._counts):
            if n and (worst is None or group[n - 1][0] >= worst):
                lowest, worst = k, group[n - 1][0]
        self._counts[lowest] -= 1
        self._scheduled -= 1
        self.changes.append(worst)

    def _best_rejected_after(self, j: int) -> int | None:
        """Index of the deadline after index j holding the highest-priority
        rejected packet (the first rejected packet of some deadline), if any."""
        # The best has the lowest -value; on a tie, the earlier deadline.
        best, top = None, None
        for k, (group, n) in enumerate(zip(self._entries[j + 1 :], self._counts[j + 1 :]), j + 1):
            if n < len(group) and (top is None or group[n][0] < top):
                best, top = k, group[n][0]
        return best
