"""Core domain types for the bounded-delay packet scheduling model.

Unit-length packets arrive over discrete time; packet p carries an integer
release time r_p >= 1, a deadline d_p (integer >= r_p, or UNBOUNDED), and a
positive real value v_p.  At most one packet is sent per step, and a packet
sent at step t counts iff r_p <= t <= d_p.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import IO, Callable, Iterable, Iterator, NamedTuple

#: Deadline sentinel.  Compares strictly greater than every bounded deadline,
#: so an UNBOUNDED packet can never expire by accident.
UNBOUNDED = math.inf

#: The largest finite float.  An int past it has no float, so a parameter
#: that the code divides or multiplies by must not exceed it.
FLOAT_MAX = sys.float_info.max

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


class Frozen:
    """Base of the immutable value types.

    A subclass names its fields in __slots__, and its __init__ checks its
    arguments, if it has rules, then sets the fields once through _init.
    Equality, hashing and repr go by the fields in that order, and assigning
    to a field raises AttributeError.  Pickling and copying call the
    constructor again, so they refuse what it refuses.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # The slots' own setters, which are faster than object.__setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _init(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of a {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._astuple() == other._astuple() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()


class Packet(Frozen):
    """A unit job: identity, release step, deadline step (or UNBOUNDED), value."""

    __slots__ = ("id", "release", "deadline", "value")

    def __init__(self, id: int, release: int, deadline: float, value: float):
        # Unrolled from _init: a sweep makes packets by the ten thousand.
        _set_id(self, id)
        _set_release(self, release)
        _set_deadline(self, deadline)
        _set_value(self, value)

    @property
    def slack(self) -> float:
        """d_p - r_p; UNBOUNDED deadline gives unbounded slack."""
        return self.deadline - self.release


_set_id, _set_release, _set_deadline, _set_value = Packet._setters


class Instance(Frozen):
    """A finite multiset of packets, plus optional generator metadata.  Making
    one from packets that break a rule raises InvalidInstanceError."""

    __slots__ = ("packets", "meta")

    def __init__(self, packets: tuple[Packet, ...], meta: dict | None = None):
        if meta is not None and not isinstance(meta, dict):  # the writer would print it, the loader refuse it
            raise ValueError(f"meta must be a dict or None, got {meta!r}")
        violations = validate_instance(packets)
        if violations:
            raise InvalidInstanceError(violations)
        self._init(packets, meta)

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


class Violation(NamedTuple):
    """A broken invariant: which packet (None for instance-level) and which rule."""

    packet_id: int | None
    rule: str
    detail: str


def validate_instance(packets: Iterable[Packet]) -> list[Violation]:
    """Check packet and instance invariants; an empty list means valid.

    Ids, releases and bounded deadlines must be integers, as in the loader; a
    bool is none of them, nor a value, though Python counts it as an int.  A
    deadline may also be an integer-valued float, and a value must be a float
    or an int within the float range.  A field of another type or range is a
    violation, never a TypeError or OverflowError.
    """
    violations: list[Violation] = []
    seen: set[int] = set()
    values: list[float] = []
    for p in packets:
        pid, release, deadline, value = p.id, p.release, p.deadline, p.value
        if type(pid) is not int:  # a str or bool id breaks the id order; a list is unhashable
            violations.append(Violation(pid, "non-integer-id", f"id {pid!r} not an integer"))
        elif pid in seen:
            violations.append(Violation(pid, "duplicate-id", f"id {pid} appears more than once"))
        else:
            seen.add(pid)
        if type(release) is not int:
            violations.append(Violation(pid, "non-integer-release", f"release {release!r} not an integer"))
        elif release < 1:
            violations.append(Violation(pid, "release-before-one", f"release {release} < 1"))
        if type(value) is float and 0.0 < value < UNBOUNDED:  # nearly every value: skip the general test
            values.append(value)
        else:
            try:  # a bool is no value either: the writer would print it as true
                positive = (
                    type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value) and value > 0
                )
            except OverflowError:  # an int past the float range, maybe too long to print
                violations.append(Violation(pid, "value-overflow", "value is an integer past the float range"))
            else:
                if positive:
                    values.append(value)
                else:
                    violations.append(Violation(pid, "non-positive-value", f"value {value} not a positive finite real"))
        if type(deadline) is int:  # nearly every deadline: skip the slower tests
            number = True
        elif deadline == UNBOUNDED:
            number = False  # it is never before its release
        else:
            number = isinstance(deadline, (int, float))
            if not number or type(deadline) is bool or deadline % 1:  # % 1 is NaN for NaN and -inf
                violations.append(Violation(pid, "non-integer-deadline", f"deadline {deadline!r} not an integer"))
        if number and (type(release) is int or isinstance(release, (int, float))) and deadline < release:
            violations.append(Violation(pid, "deadline-before-release", f"deadline {deadline} < release {release}"))
    try:  # the values are finite, so fsum either rounds their exact sum or raises
        math.fsum(values)
    except OverflowError:  # a schedule's value would be no float
        violations.append(Violation(None, "value-sum-overflow", "the values sum past the float range"))
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
    larger than every bounded counterpart; ties satisfy both directions.  The
    fields are compared as they are, never as floats: Python orders int, float
    and inf exactly, where ints past 2**53 would round together.
    """
    return {
        name: _pairwise_monotone([(getattr(p, a), getattr(p, b)) for p in inst.packets], increasing)
        for name, (a, b, increasing) in VARIANT_RULES.items()
    }


# ---------------------------------------------------------------------------
# JSON-lines serialization: one packet per line, optional leading meta line.
# {"meta": {...}}
# {"deadline": 3, "id": 0, "release": 1, "value": 2.5}   (null deadline = UNBOUNDED)
# The loader reads a line in this written form by its pattern, any other by json.
# ---------------------------------------------------------------------------

def packet_from_obj(obj: dict) -> Packet:
    """The packet of one JSON object, which must hold integer id, release and
    deadline (null for UNBOUNDED) and a numeric value, an integer one only if a
    float holds it exactly, and no other key.  Nothing is truncated, coerced
    or dropped; a missing, mistyped or unknown field raises ValueError.
    Range rules are left to validate_instance."""
    if not isinstance(obj, dict):
        raise ValueError(f"a packet must be a JSON object, got {obj!r}")
    try:
        pid, release, deadline, value = obj["id"], obj["release"], obj["deadline"], obj["value"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    if len(obj) != 4:  # the four fields are there, so some other key is too
        extra = [k for k in obj if k not in ("id", "release", "deadline", "value")]
        raise ValueError(f"unknown field {', '.join(map(repr, extra))}")
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
    try:
        number = float(value)
    except OverflowError:  # an int, maybe too long to print
        raise ValueError("value must be within the float range, got an integer past it") from None
    if type(value) is int and number != value:  # no float holds it; int == float is exact
        raise ValueError(f"value must be a float exactly, got {value}, which would round to {number!r}")
    return Packet(pid, release, deadline, number)


def json_number(x: float) -> str:
    """A number as json.dumps writes it: float.__repr__ or int.__repr__, even
    for a subclass such as numpy.float64, whose own repr differs."""
    return repr(x) if type(x) is float else json.dumps(x)


def csv_text(rows: Iterable[Iterable]) -> str:
    """Rows as CSV lines ending in "\n", each field as str() writes it and
    quoted where it holds a comma, a quote or a line break."""
    import csv  # only the commands that write a CSV load it
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class Memo(dict):
    """key -> function(key) for one call, filled on first sight and cleared
    past 1024 entries.  Equal keys share one result, so the writers key it
    by exact floats only (see dump_instance).  It pays where a family's
    values repeat."""

    def __init__(self, function: Callable):
        self.function = function

    def __missing__(self, key):
        if len(self) >= 1024:
            self.clear()
        result = self[key] = self.function(key)
        return result


def dump_instance(inst: Instance, fp: IO[str]) -> None:
    """Write the instance as JSON lines: the meta line, if any, then one line
    per packet.  Each line is json.dumps(obj, sort_keys=True) of its object,
    shown above, byte for byte; the packet lines are formatted directly,
    which is several times faster than the encoder, and written in one call,
    which is faster than a call per line.

    Each distinct exact float value is converted once, through a Memo.  An
    int or a float subclass is converted on every line: 3, 3.0 and
    numpy.float64(3.0) are one dict key but not one text."""
    if inst.meta is not None:
        fp.write(json.dumps({"meta": inst.meta}, sort_keys=True) + "\n")
    text = Memo(json_number)
    fp.write("".join(
        # Validation makes id and release ints and value a finite positive number:
        # never -0.0, which would share 0.0's memo entry.
        f'{{"deadline": {"null" if p.deadline == UNBOUNDED else int(p.deadline)}, "id": {p.id}, '
        f'"release": {p.release}, "value": {text[p.value] if type(p.value) is float else json_number(p.value)}}}\n'
        for p in inst.packets
    ))


def dumps_instance(inst: Instance) -> str:
    import io

    buf = io.StringIO()
    dump_instance(inst, buf)
    return buf.getvalue()


# json.loads keeps the last of two equal keys; this object_pairs_hook refuses them.
def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


# dump_instance's packet line: the keys in written order, JSON integers (no
# leading zero, ASCII digits only), a null or integer deadline, and a value
# with a fraction or an exponent, as float.__repr__ writes it.  json would read
# those integers with int() and that value with float(), as load_instance does.
_INT = "-?(?:0|[1-9][0-9]*)"
_WRITTEN_PACKET = (
    rf'\{{"deadline": (null|{_INT}), "id": ({_INT}), "release": ({_INT}), '
    rf'"value": ({_INT}(?:\.[0-9]+(?:e[-+]?[0-9]+)?|e[-+]?[0-9]+))\}}'
)


def load_instance(fp: IO[str]) -> Instance:
    """Read a JSON-lines instance; a bad line raises ValueError naming its number.
    No object may repeat a key.  A line in dump_instance's packet form becomes
    a packet through its pattern; every other line goes through one decode of
    a JSONDecoder made once per load, which reads it and fails on it as
    json.loads does, and either way the result is the same.  A line nested
    too deeply for the decoder also raises ValueError, never RecursionError."""
    written = re.compile(_WRITTEN_PACKET).fullmatch  # re caches it; importing compiles nothing
    decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode
    meta: dict | None = None
    packets: list[Packet] = []
    for lineno, line in enumerate(fp, 1):
        line = line.strip(" \t\n\r")  # JSON's whitespace; json.loads refuses any other
        if not line:
            continue
        try:
            if match := written(line):
                deadline, pid, release, value = match.groups()
                deadline = UNBOUNDED if deadline == "null" else int(deadline)
                packets.append(Packet(int(pid), int(release), deadline, float(value)))
                continue
            if line.startswith("\ufeff"):  # json.loads refuses a BOM before it decodes
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            obj = decode(line)
            if isinstance(obj, dict) and "meta" in obj and "id" not in obj:
                if not isinstance(obj["meta"], dict):
                    raise ValueError(f"meta must be a JSON object, got {obj['meta']!r}")
                if len(obj) != 1:
                    raise ValueError(f"unknown field {', '.join(repr(k) for k in obj if k != 'meta')} beside meta")
                if meta is not None or packets:
                    raise ValueError("a meta line may come only once, before every packet")
                meta = obj["meta"]
            else:
                packets.append(packet_from_obj(obj))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        except RecursionError:  # the decoder recurses once per level of nesting
            raise ValueError(f"line {lineno}: JSON nested too deeply to read") from None
    return Instance(tuple(packets), meta)


def loads_instance(text: str) -> Instance:
    import io

    return load_instance(io.StringIO(text))
