"""Offline optimum by min-cost assignment; shares no code with mgsched.offline.

Rows are packets, columns are the slots 1..slot_cap().  A packet scores its
value in a slot inside [release, deadline] and nothing elsewhere, so a
maximum-value assignment of every row to a distinct column is an optimal
schedule: rows placed outside their window stand for dropped packets.
"""

from __future__ import annotations

import math


def oracle_opt(inst) -> float:
    """Maximum total value of a feasible one-packet-per-slot schedule."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    packets = inst.packets
    if not packets:
        return 0.0
    cap = inst.slot_cap()
    gain = np.zeros((len(packets), cap), dtype=float)
    for row, p in enumerate(packets):
        last = cap if math.isinf(p.deadline) else min(int(p.deadline), cap)
        gain[row, p.release - 1 : last] = p.value
    rows, cols = linear_sum_assignment(gain, maximize=True)
    return math.fsum(float(gain[r, c]) for r, c in zip(rows, cols))
