"""Offline optimum (OPT) and the competitive-ratio report.

The optimum is a maximum-weight matching of packets to time slots: packet p
may occupy any slot in its window [r_p, d_p].  The sets of packets that can
all be sent form a matroid (a transversal matroid over a convex bipartite
graph), so the optimum is the matroid greedy under the strict order
(-value, deadline, id), whose chosen set is unique.

One solver computes it, the chain shift (the augmenting walk of convex
bipartite matching, Glover 1967).  Packets are inserted in greedy order into
a deadline-ordered slot assignment; an insertion walks right from r_p,
swapping the carried packet for any occupant with a later deadline, until a
slot is free or the carried packet's window ends (then nothing changes and
the packet is left out).  A walk passes only occupied slots, fewer than i
when the i-th packet is placed, so it ends within i slots of its release.
So each occupied run of slots holds only packets released within it, and
every slot a walk reaches lies on the ASAP timeline: the n slots used when
every packet is sent as early as its release allows, deadlines ignored.

The walk has two modes that place every packet on the same slot.  The plain
walk steps slot by slot: cheap on short windows, O(n^2) in the worst case.
The jump walk goes straight to the next slot that is free or holds a later
deadline than the carried packet, found in a max tree of occupant deadlines
over the timeline, so O(log n) a swap.  The chain shift starts plain; once
the slots walked past the releases of the first i packets in greedy order
reach WALK_BUDGET * log2(n) * i, it gives up and the jump walk solves the
whole order from an empty tree, which re-places those i packets in
O(i log n).  Short windows, such as the ratio sweep's, stay on the plain
walk, where jumping costs several times as much; long shift chains, such as
the lower-bound family's, switch early, where the plain walk would step
over millions of slots to swap at a few thousand.  An exhaustive oracle
cross-checks the solver on small instances.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations
from typing import NamedTuple, Sequence

from .model import UNBOUNDED, Instance, Packet, csv_text
from .policies import PolicyParams, simulate
from .provisional import _priority


class OffSchedule(NamedTuple):
    """Slot assignment achieving the offline maximum total value: `slots`,
    the solver's slot -> packet map, and `total_value`."""

    slots: dict[int, Packet]
    total_value: float


class SizeLimitError(ValueError):
    pass


# Walk budget of the chain shift, in units of log2(n) slots per packet read.
WALK_BUDGET = 4


def _chain_shift(order: Sequence[Packet]) -> dict[int, Packet]:
    """Insert the packets of `order` one by one into a deadline-ordered slot
    assignment, shifting later-deadline occupants right; a packet with no
    augmenting placement is left out.  Returns slot -> packet.  The walk steps
    slot by slot until the slots walked past the releases of the first i
    packets reach WALK_BUDGET * log2(n) * i; then _jump_walk solves the whole
    order afresh.  About two walks in three of the ratio sweep swap nothing,
    so a walk builds its undo trail only at its first swap, and it keeps the carried packet's
    deadline in a local rather than reading it at every slot."""
    budget = WALK_BUDGET * math.log2(max(len(order), 1))
    slots: dict[int, Packet] = {}
    walked = 0
    for i, p in enumerate(order, 1):
        carry, d = p, p.deadline  # the carried packet and its deadline
        t = p.release
        trail = None  # the swaps made, as (slot, occupant), from the first one on
        while t <= d:
            occ = slots.get(t)
            if occ is None:
                slots[t] = carry
                break
            if occ.deadline > d:
                if trail is None:
                    trail = [(t, occ)]
                else:
                    trail.append((t, occ))
                slots[t] = carry
                carry, d = occ, occ.deadline
            t += 1
        else:  # no free slot: undo the shifts
            if trail is not None:
                for s, old in trail:
                    slots[s] = old
        walked += t - p.release
        if walked >= budget * i and i < len(order):
            return _jump_walk(order)
    return slots


def _jump_walk(order: Sequence[Packet]) -> dict[int, Packet]:
    """The chain shift of `order` from no slots taken, with each walk jumping
    straight to the next slot that is free or holds a later deadline than the
    carried packet: a max tree of occupant deadlines finds it in O(log n).
    The tree's leaves are the n slots of the ASAP timeline, every packet sent
    as early as its release allows (deadlines ignored); see the module
    docstring for why every slot a walk reaches lies on it."""
    timeline = []
    t = 0
    for r in sorted(p.release for p in order):
        t = t + 1 if r <= t else r
        timeline.append(t)
    index = {s: j for j, s in enumerate(timeline)}
    size = 1 << len(timeline).bit_length()  # > n: a padded leaf ends every search
    timeline += [math.inf] * (size - len(timeline))  # past every last slot
    # A leaf holds its occupant's deadline, `top` for UNBOUNDED (above every
    # bounded one) or top + 1 when the slot is free.
    top = max((p.deadline for p in order if p.deadline != UNBOUNDED), default=0) + 1
    tree = [top + 1] * (2 * size)  # all free: a valid max tree
    held: list[Packet | None] = [None] * size
    for p in order:
        carry = p
        j = index[p.release]
        chain = []
        while True:
            d = carry.deadline
            key = d if d < top else top
            node = size + j
            if tree[node] <= key:  # climb to the first right sibling above key, then descend
                while node & 1 or tree[node + 1] <= key:
                    node >>= 1
                node += 1
                while node < size:
                    node <<= 1
                    if tree[node] <= key:
                        node += 1
                j = node - size
            if timeline[j] > d:
                break  # the packet is left out; nothing was written
            chain.append((j, carry))
            carry = held[j]
            if carry is None:
                # Every query looked right of the slots before it, so writing
                # the chain now changes none of its answers.
                for j, q in chain:
                    held[j] = q
                    node = size + j
                    tree[node] = min(q.deadline, top)
                    node >>= 1
                    while node:
                        a, b = tree[2 * node], tree[2 * node + 1]
                        m = a if a > b else b
                        if tree[node] == m:
                            break
                        tree[node] = m
                        node >>= 1
                break
            j += 1
    return {timeline[j]: q for j, q in enumerate(held) if q is not None}


def _edf_slots(packets: Sequence[Packet]) -> dict[int, Packet] | None:
    """Earliest deadline first over the release timeline: slot -> packet for
    every packet, or None when one would miss its deadline."""
    by_release = sorted(packets, key=lambda p: p.release)
    heap: list[tuple[float, int]] = []
    slots: dict[int, Packet] = {}
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
        if d < t:
            return None
        slots[t] = by_release[j]
        t += 1
    return slots


def offline_optimal(inst: Instance) -> OffSchedule:
    """Maximum-value packet-to-slot assignment."""
    slots = _chain_shift(sorted(inst.packets, key=_priority))
    return OffSchedule(slots, math.fsum(p.value for p in slots.values()))


def brute_force_optimal(inst: Instance) -> OffSchedule:
    """Exhaustive maximum over all feasible subsets; testing oracle only.  The
    witness slots are EDF over the best subset."""
    if len(inst.packets) > 10:  # it tries up to 2**n subsets
        raise SizeLimitError(f"brute force limited to 10 packets, got {len(inst.packets)}")
    packets = inst.packets
    best_value = 0.0
    best: dict[int, Packet] = {}
    for r in range(len(packets), 0, -1):
        for subset in combinations(packets, r):
            value = math.fsum(p.value for p in subset)
            if value > best_value:
                slots = _edf_slots(subset)
                if slots is not None:
                    best_value, best = value, slots
    return OffSchedule(best, best_value)


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


def ratio_csv(report: RatioReport, inst: Instance, params: PolicyParams) -> str:
    """The ratio command's CSV: a header, then one row, whose instance id and
    variant are the meta's seed (or k) and variant (or family), as str."""
    meta = inst.meta or {}
    instance_id = meta.get("seed", meta.get("k", ""))
    variant = meta.get("variant", meta.get("family", ""))
    return csv_text([
        ("instance_id", "variant", "policy", "alpha", "beta", *RatioReport._fields),
        (str(instance_id), str(variant), params.kind.value, params.alpha, params.beta, *report),
    ])
