"""The contract of the value types: equality and hashing by fields, fields that
cannot be assigned, pickling, and no way to make an object that the
constructor refuses.  None of it depends on how a type is implemented."""

from __future__ import annotations

import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from mgsched.analysis import ChainInstance, SweepCell, SweepReport, SweepRow
from mgsched.generators import GenSpec, LowerBoundSpec, generate
from mgsched.model import PHI, Instance, Packet, dumps_instance, loads_instance
from mgsched.offline import OffSchedule, offline_optimal
from mgsched.policies import PolicyKind, PolicyParams, SimulationTrace, simulate

SRC = Path(__file__).resolve().parent.parent / "src"

PACKET_ARGS = (0, 1, 3, 2.5)
PACKET = Packet(*PACKET_ARGS)
PARAMS = PolicyParams.mg(PHI, PHI)

#: type -> (its field names, every argument of a good object, the arguments of
#: objects its constructor refuses)
VALIDATED = {
    Instance: (
        ("packets", "meta"),
        ((PACKET,), {"seed": 1}),
        [((Packet(0, 0, 3, 2.5),), None), ((PACKET, PACKET), None), ((Packet(0, 1, 3, -1.0),), None), ((PACKET,), 5)],
    ),
    GenSpec: (
        ("variant", "n", "max_slack", "seed"),
        ("general", 5, 2, 3),
        [("bogus", 5, 2, 3), ("general", -1, 2, 3), ("general", 5, -1, 3), ("general", 2.0, 2, 3)],
    ),
    LowerBoundSpec: (("k", "epsilon"), (3, 1e-6), [(0, 1e-6), (3, 0.5), (True, 1e-6)]),
    PolicyParams: (
        ("kind", "alpha", "beta"),
        (PolicyKind.MG, PHI, PHI),
        [
            (PolicyKind.MG, 0.5, 0.5),
            (PolicyKind.MG, 1.0, 1.5),
            ("mg", PHI, PHI),
            (PolicyKind.EDF_ALPHA, 2.0, 1.5),
            # ints past the float range, which simulate would divide and multiply by
            (PolicyKind.MG, 10**400, 1.0),
            (PolicyKind.MG, 10**400, 10**399),
            (PolicyKind.EDF_ALPHA, 10**400, 1.0),
        ],
    ),
    SweepCell: (("variant", "params", "n", "max_slack"), ("general", PARAMS, 12, 3), [("general", PARAMS, 0, 3)]),
    ChainInstance: (
        ("alpha", "q_values", "p_values"),
        (2.0, (1.0,), (1.0,)),
        [
            (2.0, (5.0, 1.0), (1.0, 1.0)),
            (1.0, (1.0,), (1.0,)),
            (2.0, (), ()),
            (10**400, (1.0,), (1.0,)),
            # values no float holds, which check_chain would sum
            (2.0, (10**400,), (10**400,)),
            (2.0, (1.0,), (10**400,)),
            (2.0, (1.0,), (math.inf,)),
            # finite values whose sums no float holds
            (2.0, (1e308, 1e308), (1e308, 1e308)),
            (2.0, (1.0, 1.0), (1e308, 1e308)),
        ],
    ),
}

FIELDS = {Packet: ("id", "release", "deadline", "value"), **{t: fields for t, (fields, _, _) in VALIDATED.items()}}


def _good(cls):
    return cls(*(PACKET_ARGS if cls is Packet else VALIDATED[cls][1]))


def _sweep_report(max_ratio: float) -> SweepReport:
    return SweepReport((SweepRow("general", "mg", PHI, PHI, 3, max_ratio, 1.25, 7),))


def _packets(seed: int, max_slack: int = 8, written: bool = False) -> tuple[Packet, ...]:
    inst = generate(GenSpec("general", 20, max_slack=max_slack, seed=seed))
    return (loads_instance(dumps_instance(inst)) if written else inst).packets


# (what is compared, a maker of it, a maker of one that differs in a field)
EQUAL_BY_FIELDS = [
    ("Packet", lambda: Packet(0, 1, 3, 2.5), lambda: Packet(0, 1, 3, 3.5)),
    ("PolicyParams", lambda: PolicyParams.mg(PHI, PHI), lambda: PolicyParams.mg(PHI, 1.5)),
    ("Instance.packets", lambda: _packets(4), lambda: _packets(5)),
    ("Instance.packets, written and read", lambda: _packets(4, written=True), lambda: _packets(4, max_slack=3)),
    ("SweepReport", lambda: _sweep_report(1.5), lambda: _sweep_report(1.75)),
]


@pytest.mark.parametrize("label, make, make_other", EQUAL_BY_FIELDS, ids=[c[0] for c in EQUAL_BY_FIELDS])
def test_value_types_compare_equal_by_their_fields(label, make, make_other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != make_other()


@pytest.mark.parametrize("cls", [Packet, PolicyParams])
def test_packets_and_params_hash_by_their_fields(cls):
    a, b = _good(cls), _good(cls)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned(cls):
    obj = _good(cls)
    before = [getattr(obj, name) for name in FIELDS[cls]]
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert [getattr(obj, name) for name in FIELDS[cls]] == before


@pytest.mark.parametrize("cls", [*VALIDATED, Packet], ids=lambda c: c.__name__)
def test_pickle_and_copy_give_back_an_equal_object(cls):
    obj = _good(cls)
    for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(again) is cls and again == obj


@pytest.mark.parametrize("cls", list(VALIDATED), ids=lambda c: c.__name__)
def test_no_public_path_makes_what_the_constructor_refuses(cls):
    fields, good, bad_cases = VALIDATED[cls]
    obj = cls(*good)
    assert [getattr(obj, name) for name in fields] == list(good)
    for bad in bad_cases:
        with pytest.raises(ValueError):
            cls(*bad)
        with pytest.raises(ValueError):
            cls(**dict(zip(fields, bad)))
        # A tuple type would offer these too; each must check as cls does.
        if hasattr(cls, "_make"):
            with pytest.raises(ValueError):
                cls._make(bad)
        if hasattr(cls, "_replace"):
            with pytest.raises(ValueError):
                obj._replace(**dict(zip(fields, bad)))


@pytest.mark.parametrize("cls", list(VALIDATED), ids=lambda c: c.__name__)
def test_unpickling_checks_the_fields_again(cls):
    # A bad object forged past the constructor, as a tampered pickle would hold
    # it: unpickling (which `sweep --jobs N` does) must refuse it.
    fields, _, bad_cases = VALIDATED[cls]
    for bad in bad_cases:
        forged = object.__new__(cls)
        for name, value in zip(fields, bad):
            object.__setattr__(forged, name, value)
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(forged))


# The results that build a field on its first read: type -> (its fields, a
# maker of a fresh, unread one).
LAZY = {
    SimulationTrace: (
        ("sends", "total_value", "dropped_expired"),
        lambda: simulate(generate(GenSpec("general", 30, max_slack=3, seed=7)), PARAMS),
    ),
    OffSchedule: (("assignments", "total_value"), lambda: offline_optimal(generate(GenSpec("general", 30, seed=7)))),
}


@pytest.mark.parametrize("cls", list(LAZY), ids=lambda c: c.__name__)
def test_lazy_results_are_equal_before_and_after_the_first_read(cls):
    fields, make = LAZY[cls]
    read, unread = make(), make()
    values = [getattr(read, name) for name in fields]
    assert len(values[0]) > 0
    made = cls(*values)  # the same fields through the public constructor
    assert unread == read == made and hash(unread) == hash(read) == hash(made)
    assert [getattr(unread, name) for name in fields] == values
    assert repr(unread) == repr(made)
    # the counts need no build, and agree with the built fields
    if cls is OffSchedule:
        assert len(make()) == len(made) == len(values[0])
    else:
        assert make().sent_count == made.sent_count == len(values[0])
        assert make().sent_ids == made.sent_ids and make().steps == made.steps


@pytest.mark.parametrize("cls", list(LAZY), ids=lambda c: c.__name__)
def test_lazy_results_pickle_and_copy_before_the_first_read(cls):
    fields, make = LAZY[cls]
    want = make()
    for copier in (lambda o: pickle.loads(pickle.dumps(o)), copy.copy, copy.deepcopy):
        again = copier(make())
        assert type(again) is cls and again == want
        assert [getattr(again, name) for name in fields] == [getattr(want, name) for name in fields]


@pytest.mark.parametrize("cls", list(LAZY), ids=lambda c: c.__name__)
def test_lazy_result_fields_cannot_be_assigned_before_or_after_the_first_read(cls):
    fields, make = LAZY[cls]
    read = make()
    want = [getattr(read, name) for name in fields]
    for obj in (make(), read):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert [getattr(obj, name) for name in fields] == want


def test_import_mgsched_leaves_dataclasses_out():
    # Building dataclasses was a third of the start-up that every command pays.
    code = "import sys; before = set(sys.modules); import mgsched; print(sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert "'mgsched'" in out
    assert "'dataclasses'" not in out
