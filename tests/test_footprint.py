import copy
import pickle
from fractions import Fraction

import pytest

from ownlin import (
    Algebra,
    StateUniverse,
    delta,
    empty,
    empty_foot,
    foot_add,
    foot_leq,
    foot_sub,
    footprint_law_check,
    ram,
    ram_foot,
    ram_pi,
    ram_pi_foot,
    star,
)
from ownlin.algebra import State
from ownlin.footprint import Footprint, Full
from ownlin.history import BalancedHistory, call, interface_set, ret

HALF = Fraction(1, 2)
UNIVERSE = StateUniverse()
SMALL_PI = StateUniverse(locations=(1, 2), values=(0, 1))


def test_delta_ram_is_domain():
    assert delta(ram({1: 5, 2: 7})) == ram_foot([1, 2])
    assert delta(ram({})) == ram_foot()


def test_delta_ram_pi_tracks_permissions_and_read_values():
    assert delta(ram_pi({42: (0, HALF)})) == ram_pi_foot({42: (HALF, 0)})
    assert delta(ram_pi({42: (7, 1)})) == ram_pi_foot({42: Full})


def test_foot_add_examples():
    assert foot_add(ram_foot([1]), ram_foot([2])) == ram_foot([1, 2])
    assert foot_add(ram_foot([1]), ram_foot([1])) is None
    assert foot_add(ram_pi_foot({42: (HALF, 0)}),
                    ram_pi_foot({42: (HALF, 0)})) == ram_pi_foot({42: Full})
    assert foot_add(ram_pi_foot({42: (HALF, 0)}),
                    ram_pi_foot({42: (HALF, 1)})) is None


def test_foot_sub_examples():
    assert foot_sub(ram_foot([1, 2]), ram_foot([1])) == ram_foot([2])
    assert foot_sub(ram_foot([1]), ram_foot()) == ram_foot([1])
    assert foot_sub(ram_foot([1]), ram_foot([2])) is None
    assert foot_sub(ram_pi_foot({42: Full}), ram_pi_foot({42: (HALF, 0)})) == \
        ram_pi_foot({42: (HALF, 0)})


def test_foot_leq_examples():
    assert foot_leq(ram_foot(), ram_foot([1, 2, 3]))
    assert foot_leq(ram_foot([1]), ram_foot([1, 2]))
    assert not foot_leq(ram_pi_foot({42: Full}), ram_pi_foot({42: (HALF, 0)}))


def test_footprint_laws_ram():
    report = footprint_law_check(UNIVERSE, Algebra.RAM)
    assert report.passed, report.counterexamples[:3]


def test_footprint_laws_ram_pi():
    report = footprint_law_check(UNIVERSE, Algebra.RAM_PI)
    assert report.passed, report.counterexamples[:3]


def _keep_left(a, b):
    merged = dict(b.cells)
    merged.update(dict(a.cells))
    return State(Algebra.RAM, merged)


def test_non_cancellative_mock_detected():
    report = footprint_law_check(UNIVERSE, Algebra.RAM, star_fn=_keep_left)
    assert not report.passed
    assert any(ce.law == "foot_cancellative" for ce in report.counterexamples)


def test_delta_commutes_with_star():
    for algebra, uni in ((Algebra.RAM, UNIVERSE), (Algebra.RAM_PI, SMALL_PI)):
        states = uni.states(algebra)
        for a in states:
            for b in states:
                combined = star(a, b)
                added = foot_add(delta(a), delta(b))
                if combined is None:
                    assert added is None
                else:
                    assert added == delta(combined)


def test_foot_add_unit_and_commutativity():
    for algebra, uni in ((Algebra.RAM, UNIVERSE), (Algebra.RAM_PI, SMALL_PI)):
        foots = sorted({delta(s) for s in uni.states(algebra)},
                       key=lambda f: f.sort_key())
        unit = delta(empty(algebra))
        assert unit == empty_foot(algebra)
        for l1 in foots:
            assert foot_add(l1, unit) == l1
            for l2 in foots:
                assert foot_add(l1, l2) == foot_add(l2, l1)


def test_foot_add_associative():
    for algebra, uni in ((Algebra.RAM, UNIVERSE), (Algebra.RAM_PI, SMALL_PI)):
        foots = sorted({delta(s) for s in uni.states(algebra)},
                       key=lambda f: f.sort_key())
        for l1 in foots:
            for l2 in foots:
                l12 = foot_add(l1, l2)
                for l3 in foots:
                    l23 = foot_add(l2, l3)
                    lhs = None if l12 is None else foot_add(l12, l3)
                    rhs = None if l23 is None else foot_add(l1, l23)
                    assert lhs == rhs


def test_footprint_validation():
    with pytest.raises(ValueError):
        ram_pi_foot({1: (Fraction(1), 0)})  # full permission must use the marker
    with pytest.raises(ValueError):
        ram_foot([0])


# RAM_PI footprint entries and the state cells they describe, both refused
_BAD_PI_CELLS = {
    "location 0": ({0: Full}, {0: (0, 1)}),
    "location -3": ({-3: (HALF, 0)}, {-3: (0, HALF)}),
    "location 'a'": ({"a": Full}, {"a": (0, 1)}),
    "duplicate location": ([(1, Full), (1, (HALF, 0))], [(1, (0, 1)), (1, (0, HALF))]),
    "float permission": ({1: (0.1, 0)}, {1: (0, 0.1)}),
    "float value": ({1: (HALF, 0.5)}, {1: (0.5, HALF)}),
    "string value": ({1: (HALF, "0")}, {1: ("0", HALF)}),
}


@pytest.mark.parametrize("entries, cells", _BAD_PI_CELLS.values(), ids=list(_BAD_PI_CELLS))
def test_ram_pi_footprint_cells_pass_a_states_checks(entries, cells):
    with pytest.raises((ValueError, TypeError)):
        ram_pi_foot(entries)
    with pytest.raises((ValueError, TypeError)):
        ram_pi(cells)


def _assert_rebuilds(r):
    # a footprint built without the checks equals the one the validating
    # constructor builds from its entries, hash included
    again = Footprint(r.algebra, r.entries)
    assert r == again and hash(r) == hash(again)


@pytest.mark.parametrize("algebra", list(Algebra), ids=lambda a: a.value)
def test_trusted_footprints_equal_validated_footprints(algebra):
    states = UNIVERSE.states(algebra)
    for s in states:
        _assert_rebuilds(delta(s))
    foots = sorted({delta(s) for s in states}, key=Footprint.sort_key)
    defined = {"foot_add": 0, "foot_sub": 0}
    for l1 in foots:
        for l2 in foots:
            for name, r in (("foot_add", foot_add(l1, l2)), ("foot_sub", foot_sub(l1, l2))):
                if r is not None:
                    _assert_rebuilds(r)
                    defined[name] += 1
    assert all(defined.values()), defined


_FEET = (ram_foot([1, 3]), ram_foot(), ram_pi_foot({1: Full, 2: (HALF, 7)}))
_ENTRY = BalancedHistory(ram_foot([1]), (call(1, "m", ram({2: 0})), ret(1, "m", ram({1: 5}))))


@pytest.mark.parametrize("value", _FEET + (_ENTRY, interface_set([_ENTRY])),
                         ids=["ram", "ram-empty", "ram_pi", "balanced-history", "interface-set"])
@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)),
                                        copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_footprints_and_what_holds_them_round_trip(value, round_trip):
    # a footprint is rebuilt through its checking constructor
    got = round_trip(value)
    assert got == value and hash(got) == hash(value) and repr(got) == repr(value)
    assert getattr(got, "sort_key", lambda: None)() == getattr(value, "sort_key", lambda: None)()
