from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import inst_of, mk, naive_pairwise_flags, packet_to_obj, written_instances
from mgsched.model import (
    UNBOUNDED,
    Instance,
    InvalidInstanceError,
    Packet,
    _unique_keys,
    classify_variants,
    dumps_instance,
    loads_instance,
    packet_from_obj,
    validate_instance,
)


def _violations(*packets):
    """The violations of `packets`, which Instance must reject with that same list."""
    violations = validate_instance(packets)
    with pytest.raises(InvalidInstanceError) as info:
        Instance(packets)
    assert info.value.violations == violations
    return violations


def test_minimal_valid_instance():
    assert validate_instance((mk(0, 1, 1, 1.0),)) == []
    assert len(inst_of(mk(0, 1, 1, 1.0))) == 1


def test_deadline_before_release_violation():
    violations = _violations(mk(0, 1, 0, 1.0))
    assert [v.rule for v in violations] == ["deadline-before-release"]
    assert violations[0].packet_id == 0


def test_non_positive_value_violation():
    violations = _violations(mk(0, 1, 1, 0.0))
    assert [v.rule for v in violations] == ["non-positive-value"]


def test_duplicate_id_and_bad_release():
    violations = _violations(mk(3, 1, 2, 1.0), mk(3, 0, 2, 1.0))
    rules = {v.rule for v in violations}
    assert "duplicate-id" in rules and "release-before-one" in rules


@pytest.mark.parametrize(
    "packet, rules",
    [
        (Packet(0, "1", 3, 1.0), ["non-integer-release"]),
        (Packet(0, None, 3, 1.0), ["non-integer-release"]),
        (Packet(0, 1, "3", 1.0), ["non-integer-deadline"]),
        (Packet(0, 1, None, 1.0), ["non-integer-deadline"]),
        (Packet(0, 1, True, 1.0), ["non-integer-deadline"]),
        (Packet(0, "1", "%d", 1.0), ["non-integer-release", "non-integer-deadline"]),
        (Packet([0], 1, 3, 1.0), ["non-integer-id"]),
        (Packet("0", 1, 3, 1.0), ["non-integer-id"]),
        (Packet(True, 2, 1, 1.0), ["non-integer-id", "deadline-before-release"]),
        (Packet(0, 1, 1, 10**400), ["value-overflow"]),
        (Packet(0, 1, 1, True), ["non-positive-value"]),  # the writer would print true, which no loader reads
    ],
)
def test_mistyped_fields_are_violations_not_type_errors(packet, rules):
    assert [v.rule for v in _violations(packet)] == rules


def test_unbounded_deadline_is_valid_and_has_unbounded_slack():
    p = mk(0, 5, UNBOUNDED, 2.0)
    assert validate_instance((p,)) == []
    assert inst_of(p).packets == (p,)
    assert p.slack == UNBOUNDED


_any_packets = st.lists(
    st.builds(
        Packet,
        # A bool is no id, release or deadline, and neither is a str, None or an unhashable list.
        id=st.one_of(st.integers(0, 2), st.sampled_from((True, "0", None)), st.builds(list)),
        release=st.one_of(st.integers(-1, 4), st.sampled_from((True, "1", None))),
        deadline=st.one_of(st.integers(-1, 6), st.sampled_from((UNBOUNDED, math.nan, -math.inf, True, "3", None))),
        value=st.sampled_from((-1.0, 0.0, 0.5, math.nan, math.inf, True, 10**400)),
    ),
    max_size=4,
).map(tuple)


@given(_any_packets)
def test_instance_is_made_exactly_when_validate_instance_finds_nothing(packets):
    violations = validate_instance(packets)
    if violations:
        with pytest.raises(InvalidInstanceError) as info:
            Instance(packets)
        assert info.value.violations == violations
    else:
        assert Instance(packets).packets == packets


def test_classify_two_packet_example():
    flags = classify_variants(inst_of(mk(0, 1, 1, 5.0), mk(1, 2, 3, 1.0)))
    assert flags["agreeable-deadline"]
    assert flags["anti-agreeable-value"]
    assert not flags["agreeable-value"]


def test_classify_empty_instance_all_true():
    flags = classify_variants(Instance(()))
    assert all(flags.values())


def test_classify_ties_satisfy_both_directions():
    flags = classify_variants(inst_of(mk(0, 1, 2, 1.0), mk(1, 2, 2, 1.0)))
    assert all(flags.values())


def test_classify_unbounded_compares_largest():
    # unbounded deadline on the later release keeps the agreeable flag
    flags = classify_variants(inst_of(mk(0, 1, 5, 1.0), mk(1, 2, UNBOUNDED, 1.0)))
    assert flags["agreeable-deadline"]
    assert not flags["anti-agreeable-deadline"]


_packet_lists = st.lists(
    st.builds(
        Packet,
        id=st.integers(0, 10**6),
        release=st.integers(1, 12),
        # Deadlines past 2**53, which round together as floats, and past the float range.
        deadline=st.one_of(st.integers(1, 20), st.just(UNBOUNDED), st.integers(2**53, 2**53 + 3), st.just(10**400)),
        value=st.integers(1, 64).map(lambda m: m / 8.0),
    ),
    max_size=7,
).map(lambda ps: [p for p in ps if p.deadline >= p.release])


@given(_packet_lists)
def test_classify_matches_naive_pairwise(packets):
    ids = {p.id for p in packets}
    if len(ids) != len(packets):
        packets = [Packet(i, p.release, p.deadline, p.value) for i, p in enumerate(packets)]
    inst = Instance(tuple(packets))
    assert classify_variants(inst) == naive_pairwise_flags(inst)


@given(_packet_lists, st.integers(0, 6))
def test_classify_monotone_under_removal(packets, drop_at):
    packets = [Packet(i, p.release, p.deadline, p.value) for i, p in enumerate(packets)]
    inst = Instance(tuple(packets))
    before = classify_variants(inst)
    if packets:
        smaller = list(packets)
        del smaller[drop_at % len(smaller)]
        after = classify_variants(Instance(tuple(smaller)))
        for name, flag in before.items():
            if flag:
                assert after[name]


def test_value_reversal_turns_agreeable_into_anti():
    packets = [mk(0, 1, 3, 1.0), mk(1, 2, 4, 2.5), mk(2, 3, 9, 4.0)]
    assert classify_variants(Instance(tuple(packets)))["agreeable-value"]
    top = max(p.value for p in packets) + 1.0
    mirrored = Instance(tuple(Packet(p.id, p.release, p.deadline, top - p.value) for p in packets))
    assert classify_variants(mirrored)["anti-agreeable-value"]


def test_agreeable_and_anti_deadline_force_constant_order():
    inst = inst_of(mk(0, 1, 4, 1.0), mk(1, 1, 4, 2.0), mk(2, 3, 4, 0.5))
    flags = classify_variants(inst)
    assert flags["agreeable-deadline"] and flags["anti-agreeable-deadline"]
    # both directions pin equal deadlines within equal releases
    by_release: dict[int, set[float]] = {}
    for p in inst.packets:
        by_release.setdefault(p.release, set()).add(p.deadline)
    assert all(len(ds) == 1 for ds in by_release.values())


def test_serialization_round_trip_with_meta_and_unbounded():
    inst = Instance(
        (mk(0, 1, 3, 1.5), mk(1, 2, UNBOUNDED, 2.25)),
        meta={"variant": "general", "seed": 7},
    )
    text = dumps_instance(inst)
    back = loads_instance(text)
    assert back.packets == inst.packets
    assert back.meta == inst.meta
    assert dumps_instance(back) == text


@given(written_instances)
def test_each_written_line_is_json_dumps_of_its_object(inst):
    objs = [packet_to_obj(p) for p in inst.packets]
    if inst.meta is not None:
        objs.insert(0, {"meta": inst.meta})
    text = dumps_instance(inst)
    assert text == "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs)
    back = loads_instance(text)
    assert back.packets == inst.packets


def test_loader_rejects_a_second_or_late_meta_line():
    meta, packet = '{"meta": {"seed": 1}}\n', '{"id": 0, "release": 1, "deadline": 3, "value": 1.0}\n'
    assert loads_instance(meta + packet).meta == {"seed": 1}
    for text, lineno in ((meta + meta + packet, 2), (meta + packet + meta, 3), (packet + "\n" + meta, 3)):
        with pytest.raises(ValueError, match=f"line {lineno}: a meta line may come only once, before every packet"):
            loads_instance(text)


def test_loader_rejects_a_meta_line_with_another_key():
    packet = '{"id": 0, "release": 1, "deadline": 3, "value": 1.0}\n'
    with pytest.raises(ValueError, match="line 1: unknown field 'color' beside meta"):
        loads_instance('{"meta": {"seed": 1}, "color": "red"}\n' + packet)


def test_loader_keeps_an_integer_value_only_if_a_float_holds_it():
    line = '{"id": 0, "release": 1, "deadline": 3, "value": %d}\n'
    for value in (2**53, 2**53 + 2, 2**60, 3):
        assert loads_instance(line % value).packets[0].value == value
    for value in (2**53 + 1, 2**60 + 1):
        with pytest.raises(ValueError, match=f"line 1: value must be a float exactly, got {value}"):
            loads_instance(line % value)


def test_loader_reports_the_error_json_loads_gives():
    for line in (
        '{"id": 0} 5', '{"a": 1}  {"b": 2}', '\ufeff{"a": 1}', "{not json", "1 2", '"a" x',
        '\xa0{"id": 0, "release": 1, "deadline": 2, "value": 1.0}', "\x1c",  # not JSON's whitespace
    ):
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(line)
        with pytest.raises(ValueError) as got:
            loads_instance(" " + line + "\n")
        assert str(got.value) == f"line 1: {want.value}"


def _json_path(line: str):
    """What one json.loads of the line makes of it: its packet or its error text."""
    try:
        return packet_from_obj(json.loads(line, object_pairs_hook=_unique_keys))
    except ValueError as exc:
        return f"line 1: {exc}"


def _loaded(line: str, json_decodes: int):
    """The loader's packet or error text for the line, which it must have
    decoded as JSON that many times."""
    original = json.JSONDecoder.decode
    with mock.patch.object(json.JSONDecoder, "decode", autospec=True, side_effect=original) as decode:
        try:
            got = loads_instance(line + "\n").packets[0]
        except ValueError as exc:
            got = str(exc)
    assert decode.call_count == json_decodes, line
    return got


# Packet lines as dump_instance writes them: large and negative ids, UNBOUNDED
# deadlines, and values at the float range's edges and in every repr form.
_written_lines = st.builds(
    lambda pid, release, slack, value: dumps_instance(
        Instance((Packet(pid, release, UNBOUNDED if slack is None else release + slack, value),))
    ).strip(),
    st.integers(-(2**80), 2**80) | st.sampled_from((0, 2**63, 10**40)),
    st.integers(1, 2**64),
    st.none() | st.integers(0, 2**64),
    st.sampled_from((5e-324, 1e-06, 3.0, 1e16, 1.7976931348623157e308)) | st.floats(5e-324, 1.7976931348623157e308),
)

# Changes that take a written line out of the written form.  json reads the
# first two and the value 3 as the same packet and refuses the others.
_NEAR_MISSES = {
    "an extra space": lambda line: line.replace(", ", ",  ", 1),
    "another key order": lambda line: json.dumps(dict(reversed(json.loads(line).items()))),
    "a trailing comma": lambda line: line[:-1] + ",}",
    "a leading zero": lambda line: line.replace('"release": ', '"release": 0'),
    "the value 3": lambda line: line[: line.index('"value": ')] + '"value": 3}',
    "the value 2**53 + 1": lambda line: line[: line.index('"value": ')] + '"value": 9007199254740993}',
}


@given(_written_lines)
def test_a_written_line_is_read_by_its_pattern_as_json_reads_it(line):
    assert _loaded(line, json_decodes=0) == _json_path(line)


@given(_written_lines, st.sampled_from(sorted(_NEAR_MISSES)))
def test_a_near_miss_of_the_written_form_is_read_by_json(line, change):
    line = _NEAR_MISSES[change](line)
    assert _loaded(line, json_decodes=1) == _json_path(line)


def test_a_hand_formatted_file_builds_at_most_one_decoder():
    # Keys out of written order send every line down the json path.
    lines = [json.dumps({"value": 1.5, "id": i, "release": 1, "deadline": i + 1}) for i in range(200)]
    with mock.patch("json.JSONDecoder", wraps=json.JSONDecoder) as decoder:
        inst = loads_instance("\n".join(lines) + "\n")
    assert [p.id for p in inst.packets] == list(range(200))
    assert decoder.call_count <= 1


def test_importing_mgsched_compiles_no_loader_pattern():
    code = (
        "import re; seen = []; compile = re.compile\n"
        "re.compile = lambda pattern, *args: seen.append(pattern) or compile(pattern, *args)\n"
        "import mgsched.cli, mgsched.model as model; print(model._WRITTEN_PACKET in seen)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_horizon_and_slot_cap():
    inst = inst_of(mk(0, 1, 1000, 1.0))
    assert inst.slot_cap() == 2
    inst2 = inst_of(mk(0, 1, UNBOUNDED, 1.0), mk(1, 4, 5, 1.0))
    assert inst2.slot_cap() == 6
