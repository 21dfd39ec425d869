"""Core domain types for the bounded-delay packet scheduling model.

Unit-length packets arrive over discrete time; packet p carries an integer
release time r_p >= 1, a deadline d_p (integer >= r_p, or UNBOUNDED), and a
positive real value v_p.  At most one packet is sent per step, and a packet
sent at step t counts iff r_p <= t <= d_p.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

#: Deadline sentinel.  Compares strictly greater than every bounded deadline,
#: so an UNBOUNDED packet can never expire by accident.
UNBOUNDED = math.inf

#: Golden ratio, (1 + sqrt(5)) / 2.  Satisfies PHI + 1/PHI**2 == 2.
PHI = (1.0 + math.sqrt(5.0)) / 2.0

VARIANT_GENERAL = "general"
VARIANT_AGREEABLE_DEADLINE = "agreeable-deadline"
VARIANT_ANTI_AGREEABLE_DEADLINE = "anti-agreeable-deadline"
VARIANT_AGREEABLE_VALUE = "agreeable-value"
VARIANT_ANTI_AGREEABLE_VALUE = "anti-agreeable-value"
VARIANT_AGREEABLE_DEADLINE_VALUE = "agreeable-deadline-value"
VARIANT_ANTI_AGREEABLE_DEADLINE_VALUE = "anti-agreeable-deadline-value"
VARIANT_AGREEABLE_SLACK_VALUE = "agreeable-slack-value"
VARIANT_ANTI_AGREEABLE_SLACK_VALUE = "anti-agreeable-slack-value"

#: The eight pairwise-constrained settings, in a fixed reporting order.  Each
#: is one rule over two packet fields (a, b): for every two packets p and q,
#: a_p <= a_q implies b_p <= b_q, or b_p >= b_q when not increasing.
VARIANT_RULES = {
    VARIANT_AGREEABLE_DEADLINE: ("release", "deadline", True),
    VARIANT_ANTI_AGREEABLE_DEADLINE: ("release", "deadline", False),
    VARIANT_AGREEABLE_VALUE: ("release", "value", True),
    VARIANT_ANTI_AGREEABLE_VALUE: ("release", "value", False),
    VARIANT_AGREEABLE_DEADLINE_VALUE: ("deadline", "value", True),
    VARIANT_ANTI_AGREEABLE_DEADLINE_VALUE: ("deadline", "value", False),
    VARIANT_AGREEABLE_SLACK_VALUE: ("slack", "value", True),
    VARIANT_ANTI_AGREEABLE_SLACK_VALUE: ("slack", "value", False),
}

CONSTRAINED_VARIANTS = tuple(VARIANT_RULES)

ALL_VARIANTS = (VARIANT_GENERAL,) + CONSTRAINED_VARIANTS


@dataclass(frozen=True, slots=True)
class Packet:
    """A unit job: identity, release step, deadline step (or UNBOUNDED), value."""

    id: int
    release: int
    deadline: float  # integer-valued, or UNBOUNDED
    value: float

    @property
    def slack(self) -> float:
        """d_p - r_p; UNBOUNDED deadline gives unbounded slack."""
        return self.deadline - self.release

    @property
    def has_bounded_deadline(self) -> bool:
        return self.deadline != UNBOUNDED


@dataclass(frozen=True)
class Instance:
    """A finite multiset of packets, plus optional generator metadata.  Making
    one from packets that break a rule raises InvalidInstanceError."""

    packets: tuple[Packet, ...]
    meta: dict | None = None

    def __post_init__(self):
        violations = validate_instance(self.packets)
        if violations:
            raise InvalidInstanceError(violations)

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    @property
    def max_release(self) -> int:
        return max((p.release for p in self.packets), default=0)

    def slot_cap(self) -> int:
        """Last slot any schedule needs: max release plus packet count.

        Sending is work-conserving past the last arrival, so every schedulable
        packet (bounded or not) fits within this cap.
        """
        return self.max_release + len(self.packets)


@dataclass(frozen=True)
class Violation:
    """A broken invariant: which packet (None for instance-level) and which rule."""

    packet_id: int | None
    rule: str
    detail: str


def validate_instance(packets: Iterable[Packet]) -> list[Violation]:
    """Check packet and instance invariants; an empty list means valid."""
    violations: list[Violation] = []
    seen: set[int] = set()
    for p in packets:
        if p.id in seen:
            violations.append(Violation(p.id, "duplicate-id", f"id {p.id} appears more than once"))
        seen.add(p.id)
        if not isinstance(p.release, int) or p.release < 1:
            violations.append(Violation(p.id, "release-before-one", f"release {p.release} < 1"))
        if not (isinstance(p.value, (int, float)) and math.isfinite(p.value) and p.value > 0):
            violations.append(Violation(p.id, "non-positive-value", f"value {p.value} not a positive finite real"))
        if p.deadline != UNBOUNDED:
            if p.deadline != int(p.deadline):
                violations.append(Violation(p.id, "non-integer-deadline", f"deadline {p.deadline} not an integer"))
            if p.deadline < p.release:
                violations.append(
                    Violation(p.id, "deadline-before-release", f"deadline {p.deadline} < release {p.release}")
                )
    return violations


class InvalidInstanceError(ValueError):
    """Raised when an Instance is made from packets that break a rule."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(f"[{v.packet_id}] {v.rule}: {v.detail}" for v in violations))


def _pairwise_monotone(pairs: list[tuple[float, float]], increasing: bool) -> bool:
    """True iff for every two items, a_p <= a_q implies b_p <= b_q (>= if not increasing).

    Equivalent check on the (a, b)-sorted sequence: items sharing an a must
    share b, and b must move with a across strict a-increases.
    """
    if len(pairs) < 2:
        return True
    pairs = sorted(pairs)
    prev_a, prev_b = pairs[0]
    for a, b in pairs[1:]:
        if a == prev_a:
            if b != prev_b:
                return False
        else:
            if increasing and b < prev_b:
                return False
            if not increasing and b > prev_b:
                return False
        prev_a, prev_b = a, b
    return True


def classify_variants(inst: Instance) -> dict[str, bool]:
    """Whether the instance satisfies each pairwise variant, by name, in
    CONSTRAINED_VARIANTS order.

    UNBOUNDED deadlines (and the unbounded slacks they induce) compare as
    larger than every bounded counterpart; ties satisfy both directions.
    """
    return {
        name: _pairwise_monotone([(float(getattr(p, a)), float(getattr(p, b))) for p in inst.packets], increasing)
        for name, (a, b, increasing) in VARIANT_RULES.items()
    }


# ---------------------------------------------------------------------------
# JSON-lines serialization: one packet per line, optional leading meta line.
# {"meta": {...}}
# {"id": 0, "release": 1, "deadline": 3, "value": 2.5}   (null deadline = UNBOUNDED)
# ---------------------------------------------------------------------------

def packet_to_obj(p: Packet) -> dict:
    return {
        "id": p.id,
        "release": p.release,
        "deadline": None if not p.has_bounded_deadline else int(p.deadline),
        "value": p.value,
    }


def packet_from_obj(obj: dict) -> Packet:
    """The packet of one JSON object, which must hold integer id, release and
    deadline (null for UNBOUNDED) and a numeric value.  Nothing is truncated or
    coerced; a missing or mistyped field raises ValueError.  Range rules are
    left to validate_instance."""
    if not isinstance(obj, dict):
        raise ValueError(f"a packet must be a JSON object, got {obj!r}")
    try:
        pid, release, deadline, value = obj["id"], obj["release"], obj["deadline"], obj["value"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    # Exact type tests: JSON true is a bool, which must not pass as 1.
    if type(pid) is not int:
        raise ValueError(f"id must be an integer, got {pid!r}")
    if type(release) is not int:
        raise ValueError(f"release must be an integer, got {release!r}")
    if deadline is None:
        deadline = UNBOUNDED
    elif type(deadline) is not int:
        raise ValueError(f"deadline must be an integer or null, got {deadline!r}")
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"value must be a number, got {value!r}")
    return Packet(pid, release, deadline, float(value))


def dump_instance(inst: Instance, fp: IO[str]) -> None:
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(obj, sort_keys=True), built once
    if inst.meta is not None:
        fp.write(encode({"meta": inst.meta}) + "\n")
    for p in inst.packets:
        fp.write(encode(packet_to_obj(p)) + "\n")


def dumps_instance(inst: Instance) -> str:
    import io

    buf = io.StringIO()
    dump_instance(inst, buf)
    return buf.getvalue()


_raw_decode = json.JSONDecoder().raw_decode


def _loads(line: str):
    """json.loads of a stripped line, without its per-call wrapper and
    whitespace scans.  A line that is not one whole JSON value gets the error
    json.loads raises, trailing data ("Extra data") included."""
    try:
        obj, end = _raw_decode(line)
        if end == len(line):
            return obj
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def load_instance(fp: IO[str]) -> Instance:
    """Read a JSON-lines instance; a bad line raises ValueError naming its number."""
    meta: dict | None = None
    packets: list[Packet] = []
    for lineno, line in enumerate(fp, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = _loads(line)
            if isinstance(obj, dict) and "meta" in obj and "id" not in obj:
                if not isinstance(obj["meta"], dict):
                    raise ValueError(f"meta must be a JSON object, got {obj['meta']!r}")
                if meta is not None or packets:
                    raise ValueError("a meta line may come only once, before every packet")
                meta = obj["meta"]
            else:
                packets.append(packet_from_obj(obj))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return Instance(tuple(packets), meta)


def loads_instance(text: str) -> Instance:
    import io

    return load_instance(io.StringIO(text))
