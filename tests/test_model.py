from __future__ import annotations

import io
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import inst_of, mk, naive_pairwise_flags
from mgsched.model import (
    UNBOUNDED,
    Instance,
    InvalidInstanceError,
    Packet,
    classify_variants,
    dumps_instance,
    loads_instance,
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


def test_unbounded_deadline_is_valid_and_has_unbounded_slack():
    p = mk(0, 5, UNBOUNDED, 2.0)
    assert validate_instance((p,)) == []
    assert inst_of(p).packets == (p,)
    assert p.slack == UNBOUNDED
    assert not p.has_bounded_deadline


_any_packets = st.lists(
    st.builds(
        Packet,
        id=st.integers(0, 2),
        release=st.integers(-1, 4),
        deadline=st.one_of(st.integers(-1, 6), st.just(UNBOUNDED)),
        value=st.sampled_from((-1.0, 0.0, 0.5, math.nan, math.inf)),
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
        deadline=st.one_of(st.integers(1, 20), st.just(UNBOUNDED)),
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


def test_loader_rejects_a_second_or_late_meta_line():
    meta, packet = '{"meta": {"seed": 1}}\n', '{"id": 0, "release": 1, "deadline": 3, "value": 1.0}\n'
    assert loads_instance(meta + packet).meta == {"seed": 1}
    for text, lineno in ((meta + meta + packet, 2), (meta + packet + meta, 3), (packet + "\n" + meta, 3)):
        with pytest.raises(ValueError, match=f"line {lineno}: a meta line may come only once, before every packet"):
            loads_instance(text)


def test_loader_reports_the_error_json_loads_gives():
    for line in ('{"id": 0} 5', '{"a": 1}  {"b": 2}', '\ufeff{"a": 1}', "{not json", "1 2", '"a" x'):
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(line)
        with pytest.raises(ValueError) as got:
            loads_instance(" " + line + "\n")
        assert str(got.value) == f"line 1: {want.value}"


def test_horizon_and_slot_cap():
    inst = inst_of(mk(0, 1, 1000, 1.0))
    assert inst.slot_cap() == 2
    inst2 = inst_of(mk(0, 1, UNBOUNDED, 1.0), mk(1, 4, 5, 1.0))
    assert inst2.slot_cap() == 6
