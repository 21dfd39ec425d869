"""Offline optimum (OPT) and the competitive-ratio report.

The optimum is a maximum-weight matching of packets to time slots: packet p
may occupy any slot in [r_p, D_p], D_p = min(deadline, cap), where cap = max
release plus packet count (slots past the cap never help).  The sets of
packets that can all be sent form a matroid (a transversal matroid over a
convex bipartite graph), so the optimum is the matroid greedy under the
strict order (-value, deadline, id), whose chosen set is unique.  Two exact
solvers compute that same set.

Chain shift.  Packets are inserted in greedy order into a deadline-ordered
slot assignment; an insertion walks right from r_p, swapping itself for any
occupant with a later deadline, until a slot is free or the window ends (then
the shifts are undone and the packet is dropped).  Cheap on short windows,
but the walk is O(n^2) in the worst case.

Matroid exchange, O(n log n).  Packets are taken in deadline order while
keeping the best set S of those seen.  Every member of S has D <= D_p, so
Hall's condition for S + p is one-dimensional: S + p can all be sent iff
a + C(a) <= D_p for every distinct release a <= r_p, where C(a) counts the
members of S released at or after a.  (a + C(a) stays below the cap, so the
raw deadline serves as D_p.)  A segment tree over the distinct
releases finds the last a <= r_p that breaks it, a*.  If there is one, p's
circuit is p plus every member of S released at or after a*, and the circuit's
lowest member in the greedy order leaves (a max tree of greedy ranks over the
chosen packets, by release, finds it).  The witness slots are EDF over the
chosen set.

offline_optimal runs the chain shift and drops it for the exchange as soon as
the slots walked past the releases of the first i packets in greedy order add
up to more than WALK_BUDGET * log2(n) * i.  At i = n that is WALK_BUDGET *
n*log2(n); checking every prefix drops a walk that runs long within a few
hundred packets.  The largest walk / (i*log2 n) over all prefixes: 1.87 on
7200 instances of the nine table1 sweep cells (n <= 40, max slack 8, sweep
seeds 0, 7, 801 and 901) and 0.31 on 100 bursts of 30 general packets 5000
steps apart, so both stay on the chain shift.  On the lower-bound family the
budget trips at the 240th, 255th, 272nd and 486th packet for k = 6, 8, 10 and
12 (of 341, 1463, 6033 and 24 419); a budget on the total alone trips at the
1768th at k = 10 and the 3822nd at k = 12.  The exchange solves k = 12 in
about 0.3 s where the chain shift took 14.5 s.  On the sweep's instances the
exchange alone takes about 5x the chain shift's time, so neither solver is
best everywhere.  An exhaustive oracle cross-checks both on small instances.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .model import UNBOUNDED, Frozen, Instance, Packet
from .policies import PolicyParams, simulate
from .provisional import _priority


class OffSchedule(Frozen):
    """Slot assignment achieving the offline maximum total value."""

    __slots__ = ("assignments", "total_value")

    def __init__(self, assignments: tuple[tuple[int, int], ...], total_value: float):
        self._init(assignments, total_value)  # assignments: (packet id, slot), by id

    def __len__(self) -> int:
        return len(self.assignments)


class SizeLimitError(ValueError):
    pass


# Walk budget of the chain shift, in units of log2(n) slots per packet read.
WALK_BUDGET = 4


def _walk_budget(n: int) -> float:
    """The chain shift's walk allowance per packet read, WALK_BUDGET * log2(n).
    Over every prefix, the sweep's instances walk at most 1.87 * log2(n) slots
    a packet and the sparse-span bursts 0.31 * log2(n)."""
    return WALK_BUDGET * math.log2(max(n, 1))


def _chain_shift(order: Iterable[Packet], cap: int, budget: float) -> dict[int, Packet] | None:
    """Insert the packets of `order` one by one into a deadline-ordered slot
    assignment, shifting later-deadline occupants right; a packet with no
    augmenting placement is left out.  Returns slot -> packet, or None as soon
    as the slots walked past the releases of the first i packets add up to
    more than `budget` * i.  Under _walk_budget that is packet 240, 255, 272
    and 486 of the lower-bound family at k = 6, 8, 10 and 12."""
    slots: dict[int, Packet] = {}
    walked = 0
    for i, p in enumerate(order, 1):
        carry = p
        t = p.release
        trail: list[tuple[int, Packet]] = []
        while t <= cap and t <= carry.deadline:
            occ = slots.get(t)
            if occ is None:
                slots[t] = carry
                break
            if occ.deadline > carry.deadline:
                trail.append((t, occ))
                slots[t] = carry
                carry = occ
            t += 1
        else:  # no free slot: undo the shifts
            for s, old in trail:
                slots[s] = old
        walked += t - p.release
        if walked > budget * i:
            return None
    return slots


def _exchange(order: Sequence[Packet]) -> list[Packet]:
    """The max-weight independent set of the greedy order `order`, built in
    deadline order by matroid exchange; O(n log n).  The slot cap needs no
    place here: a + C(a) <= max release + n - 1 < cap, so a deadline at or
    past the cap never fails the check."""
    n = len(order)
    releases = sorted({p.release for p in order})
    rel_index = {a: i for i, a in enumerate(releases)}
    # Release tree over the distinct releases a_i.  cnt[node] is the number of
    # chosen packets released in the node's range; best[node] is the max over
    # its a_i of a_i + (chosen released in the range at or after a_i).  So
    # a_i + C(a_i) is best of a leaf plus cnt of everything to its right, and
    # choosing a packet adds 1 to the whole prefix a_0..r_p.
    size = 1 << len(releases).bit_length()  # > len(releases): a prefix never spans the root
    best = [0] * (2 * size)  # 0 pads: never above a deadline
    cnt = [0] * (2 * size)
    best[size : size + len(releases)] = releases
    for node in range(size - 1, 0, -1):
        best[node] = max(best[2 * node], best[2 * node + 1])
    # Rank tree: leaf per packet in release order, holding its greedy rank
    # while chosen and -1 otherwise, under a max.
    by_release = sorted(range(n), key=lambda k: order[k].release)
    pos = [0] * n
    for j, k in enumerate(by_release):
        pos[k] = j
    first = [0] * len(releases)  # first rank-tree position of each release
    for j in range(n - 1, -1, -1):
        first[rel_index[order[by_release[j]].release]] = j
    rsize = 1 << max(n - 1, 0).bit_length()
    ranks = [-1] * (2 * rsize)

    def count(i: int, step: int) -> None:
        node = size + i
        cnt[node] += step
        best[node] += step
        node >>= 1
        while node:
            left = 2 * node
            c = cnt[left + 1]
            cnt[node] = cnt[left] + c
            b = best[left] + c
            best[node] = b if b > best[left + 1] else best[left + 1]
            node >>= 1

    def rank(j: int, value: int) -> None:
        node = rsize + j
        ranks[node] = value
        node >>= 1
        if value >= 0:
            while node and ranks[node] < value:
                ranks[node] = value
                node >>= 1
            return
        while node:
            left, right = ranks[2 * node], ranks[2 * node + 1]
            top = left if left > right else right
            if ranks[node] == top:
                break
            ranks[node] = top
            node >>= 1

    # Canonical nodes of each prefix a_0..a_i, right to left.
    prefixes = []
    for i in range(len(releases)):
        nodes = []
        node = size + i + 1
        while node > 1:
            if node & 1:
                nodes.append(node - 1)
            node >>= 1
        prefixes.append(nodes)

    chosen = 0
    for k in sorted(range(n), key=lambda k: order[k].deadline):
        p = order[k]
        i = rel_index[p.release]
        # The last release a <= r_p with a + C(a) > d_p, if any.
        nodes = prefixes[i]
        right = chosen
        for node in nodes:
            right -= cnt[node]
        violated = -1
        for node in nodes:
            if best[node] + right > p.deadline:
                while node < size:
                    node = 2 * node + 1
                    if best[node] + right <= p.deadline:
                        right += cnt[node]
                        node -= 1
                violated = node - size
                break
            right += cnt[node]
        if violated >= 0:
            # The circuit is p plus every chosen packet released at or after
            # a*; drop its lowest member in the greedy order.
            lo, hi, low = first[violated] + rsize, n + rsize, -1
            while lo < hi:
                if lo & 1:
                    if ranks[lo] > low:
                        low = ranks[lo]
                    lo += 1
                if hi & 1:
                    hi -= 1
                    if ranks[hi] > low:
                        low = ranks[hi]
                lo >>= 1
                hi >>= 1
            if low < k:
                continue
            count(rel_index[order[low].release], -1)
            rank(pos[low], -1)
            chosen -= 1
        count(i, 1)
        rank(pos[k], k)
        chosen += 1
    return [order[k] for k in by_release if ranks[rsize + pos[k]] >= 0]


def _edf_slots(packets: Sequence[Packet], cap: int) -> list[tuple[int, int]] | None:
    """Earliest deadline first over the release timeline: (packet id, slot)
    for every packet, or None when one would miss its deadline or the cap."""
    by_release = sorted(packets, key=lambda p: p.release)
    heap: list[tuple[float, int]] = []
    slots: list[tuple[int, int]] = []
    i = 0
    t = 1
    n = len(by_release)
    while i < n or heap:
        if not heap and by_release[i].release > t:
            t = by_release[i].release
        while i < n and by_release[i].release <= t:
            heapq.heappush(heap, (by_release[i].deadline, i))
            i += 1
        d, j = heapq.heappop(heap)
        if d < t or t > cap:
            return None
        slots.append((by_release[j].id, t))
        t += 1
    return slots


def offline_optimal(inst: Instance) -> OffSchedule:
    """Maximum-value packet-to-slot assignment within the capped horizon."""
    cap = inst.slot_cap()
    order = sorted(inst.packets, key=_priority)
    slots = _chain_shift(order, cap, _walk_budget(len(order)))
    if slots is not None:
        chosen: Sequence[Packet] = list(slots.values())
        assignments = [(p.id, s) for s, p in slots.items()]
    else:
        chosen = _exchange(order)
        assignments = _edf_slots(chosen, cap)
    return OffSchedule(tuple(sorted(assignments)), math.fsum(p.value for p in chosen))


def brute_force_optimal(inst: Instance) -> OffSchedule:
    """Exhaustive maximum over all feasible subsets; testing oracle only.  The
    witness slots are EDF over the best subset."""
    if len(inst.packets) > 10:  # it tries up to 2**n subsets
        raise SizeLimitError(f"brute force limited to 10 packets, got {len(inst.packets)}")
    cap = inst.slot_cap()
    packets = inst.packets
    best_value = 0.0
    best: list[tuple[int, int]] = []
    for r in range(len(packets), 0, -1):
        for subset in combinations(packets, r):
            value = sum(p.value for p in subset)
            if value > best_value:
                slots = _edf_slots(subset, cap)
                if slots is not None:
                    best_value, best = value, slots
    return OffSchedule(tuple(sorted(best)), best_value)


class RatioReport(NamedTuple):
    """OPT value vs one policy's value on one instance."""

    opt_value: float
    alg_value: float
    ratio: float

    @classmethod
    def from_values(cls, opt_value: float, alg_value: float) -> "RatioReport":
        if opt_value == 0.0 and alg_value == 0.0:
            ratio = 1.0
        elif alg_value == 0.0:
            ratio = math.inf
        else:
            ratio = opt_value / alg_value
        return cls(opt_value, alg_value, ratio)


def empirical_ratio(inst: Instance, params: PolicyParams) -> RatioReport:
    """Ratio of the offline optimum to one simulated policy run."""
    return RatioReport.from_values(offline_optimal(inst).total_value, simulate(inst, params).total_value)


RATIO_CSV_HEADER = "instance_id,variant,policy,alpha,beta,opt_value,alg_value,ratio"


def ratio_csv_row(report: RatioReport, inst: Instance, params: PolicyParams) -> str:
    meta = inst.meta or {}
    instance_id = meta.get("seed", meta.get("k", ""))
    variant = meta.get("variant", meta.get("family", ""))
    alpha = "inf" if params.alpha == UNBOUNDED else repr(params.alpha)
    return ",".join(
        [
            str(instance_id),
            str(variant),
            params.kind.value,
            alpha,
            repr(params.beta),
            repr(report.opt_value),
            repr(report.alg_value),
            "inf" if report.ratio == math.inf else repr(report.ratio),
        ]
    )
