"""Offline optimum (OPT) and the competitive-ratio report.

The optimum is a maximum-weight matching of packets to time slots: packet p
may occupy any slot in [release, min(deadline, cap)] where cap = max release
plus packet count (slots past the cap never help, every live window below it
is materialized on demand).  The matching is built greedily by decreasing
value with an augmenting insertion that keeps the assigned slots
deadline-ordered, which is exact for this packet/slot structure; an
exhaustive oracle cross-checks it on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .model import UNBOUNDED, Instance, Packet, require_valid
from .policies import PolicyParams, simulate


@dataclass(frozen=True)
class OffSchedule:
    """Slot assignment achieving the offline maximum total value."""

    assignments: tuple[tuple[int, int], ...]  # (packet id, slot), slot-ordered
    total_value: float

    def __len__(self) -> int:
        return len(self.assignments)


class SizeLimitError(ValueError):
    pass


def _try_insert(slots: dict[int, Packet], p: Packet, cap: int) -> bool:
    """Insert p into the deadline-ordered slot assignment, shifting later-deadline
    occupants right as needed.  Returns False (and leaves `slots` untouched)
    when no augmenting placement exists."""
    carry = p
    t = carry.release
    trail: list[tuple[int, Packet | None]] = []
    while t <= cap and t <= carry.deadline:
        occ = slots.get(t)
        if occ is None:
            trail.append((t, None))
            slots[t] = carry
            return True
        if occ.deadline > carry.deadline:
            trail.append((t, occ))
            slots[t] = carry
            carry = occ
        t += 1
    for s, old in reversed(trail):
        if old is None:
            del slots[s]
        else:
            slots[s] = old
    return False


def offline_optimal(inst: Instance) -> OffSchedule:
    """Maximum-value packet-to-slot assignment within the capped horizon."""
    require_valid(inst)
    cap = inst.slot_cap()
    slots: dict[int, Packet] = {}
    order = sorted(inst.packets, key=lambda p: (-p.value, p.deadline, p.id))
    for p in order:
        _try_insert(slots, p, cap)
    assignments = tuple(sorted((pkt.id, s) for s, pkt in slots.items()))
    return OffSchedule(assignments, sum(pkt.value for pkt in slots.values()))


def _edf_feasible(packets: Sequence[Packet], cap: int) -> bool:
    """Can every packet in the set be sent by its deadline?  Earliest-deadline
    simulation over the release timeline."""
    import heapq

    by_release = sorted(packets, key=lambda p: p.release)
    heap: list[tuple[float, int]] = []
    i = 0
    t = by_release[0].release if by_release else 1
    n = len(by_release)
    while i < n or heap:
        if not heap and i < n and by_release[i].release > t:
            t = by_release[i].release
        while i < n and by_release[i].release <= t:
            heapq.heappush(heap, (by_release[i].deadline, i))
            i += 1
        d, _ = heapq.heappop(heap)
        if d < t or t > cap:
            return False
        t += 1
    return True


def brute_force_optimal(inst: Instance, size_limit: int = 10) -> OffSchedule:
    """Exhaustive maximum over all feasible subsets; testing oracle only."""
    require_valid(inst)
    if len(inst.packets) > size_limit:
        raise SizeLimitError(f"brute force limited to {size_limit} packets, got {len(inst.packets)}")
    cap = inst.slot_cap()
    packets = inst.packets
    best_value = 0.0
    best: tuple[Packet, ...] = ()
    for r in range(len(packets), 0, -1):
        for subset in combinations(packets, r):
            value = sum(p.value for p in subset)
            if value > best_value and _edf_feasible(subset, cap):
                best_value = value
                best = subset
    # Recover a witness assignment; insertion cannot fail on a feasible set.
    slots: dict[int, Packet] = {}
    for p in best:
        inserted = _try_insert(slots, p, cap)
        assert inserted
    assignments = tuple(sorted((pkt.id, s) for s, pkt in slots.items()))
    return OffSchedule(assignments, best_value)


@dataclass(frozen=True)
class RatioReport:
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
    opt = offline_optimal(inst)  # validates the instance, once for both
    trace = simulate(inst, params, validate=False)
    return RatioReport.from_values(opt.total_value, trace.total_value)


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
