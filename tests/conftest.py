from __future__ import annotations

import math

from mgsched.model import UNBOUNDED, Instance, Packet
from mgsched.policies import SimulationTrace
from mgsched.provisional import optimal_provisional_schedule


def mk(pid: int, release: int, deadline: float, value: float) -> Packet:
    return Packet(pid, release, deadline, value)


def inst_of(*packets: Packet) -> Instance:
    return Instance(tuple(packets))


def heads_of(scheduled) -> list[Packet]:
    """First packet of each deadline (UNBOUNDED is one deadline) of a
    canonically ordered provisional schedule, in order."""
    heads: list[Packet] = []
    for p in scheduled:
        if not heads or heads[-1].deadline != p.deadline:
            heads.append(p)
    return heads


def brute_best_pending_value(pending, t: int) -> float:
    """Independent oracle: max total value over all slot-feasible subsets."""
    n = len(pending)
    best = 0.0
    for mask in range(1 << n):
        subset = [pending[i] for i in range(n) if mask >> i & 1]
        deadlines = sorted(p.deadline for p in subset)
        if all(d >= t + i for i, d in enumerate(deadlines)):
            best = max(best, sum(p.value for p in subset))
    return best


def assignment_opt(inst: Instance) -> float:
    """Independent OPT oracle: a maximum-weight assignment of the packets (rows)
    to the slots 1..slot_cap() (columns) by scipy's linear_sum_assignment.  A
    packet scores its value in a slot of its window and 0 elsewhere, so one
    matched outside its window is a packet left unsent."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    if not inst.packets:
        return 0.0
    slots = np.arange(1, inst.slot_cap() + 1)
    release = np.array([[p.release] for p in inst.packets])
    deadline = np.array([[p.deadline] for p in inst.packets], dtype=float)  # UNBOUNDED is inf
    value = np.array([[p.value] for p in inst.packets])
    score = np.where((release <= slots) & (slots <= deadline), value, 0.0)
    rows, cols = linear_sum_assignment(score, maximize=True)
    return math.fsum(score[rows, cols].tolist())


def value_order_held(inst: Instance, trace: SimulationTrace) -> bool:
    """Whether the optimal provisional schedule, rebuilt from scratch at every
    send of `trace`, was value-nonincreasing in canonical order each time.

    That order is the premise under which MG(inf, 1) is exact.  Anti-agreeable
    deadline/value instances always keep it; anti-agreeable slack/value
    instances can break it.  Idle steps have an empty buffer, so only the
    sends need checking.
    """
    sent: set[int] = set()
    for step in trace.sends:
        pending = [p for p in inst.packets if p.release <= step.t <= p.deadline and p.id not in sent]
        values = [p.value for p in optimal_provisional_schedule(pending, step.t)]
        if any(a < b for a, b in zip(values, values[1:])):
            return False
        sent.add(step.sent_id)
    return True


def naive_pairwise_flags(inst: Instance) -> dict[str, bool]:
    """Quadratic re-derivation of all eight variant conditions."""

    def holds(key_a, key_b, increasing):
        for p in inst.packets:
            for q in inst.packets:
                if key_a(p) <= key_a(q):
                    if increasing and not key_b(p) <= key_b(q):
                        return False
                    if not increasing and not key_b(p) >= key_b(q):
                        return False
        return True

    r = lambda p: p.release
    d = lambda p: p.deadline
    v = lambda p: p.value
    s = lambda p: p.slack
    return {
        "agreeable-deadline": holds(r, d, True),
        "anti-agreeable-deadline": holds(r, d, False),
        "agreeable-value": holds(r, v, True),
        "anti-agreeable-value": holds(r, v, False),
        "agreeable-deadline-value": holds(d, v, True),
        "anti-agreeable-deadline-value": holds(d, v, False),
        "agreeable-slack-value": holds(s, v, True),
        "anti-agreeable-slack-value": holds(s, v, False),
    }
