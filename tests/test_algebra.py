from fractions import Fraction

import pytest

from ownlin import (
    Algebra,
    StateUniverse,
    algebra_law_check,
    empty,
    is_precise,
    pred_star,
    predicate,
    ram,
    ram_pi,
    star,
    state_sub,
)
from ownlin.algebra import State
from ownlin.footprint import Full, foot_add, foot_sub, ram_foot, ram_pi_foot
from ownlin.lang import TOP, prim_step, store

from helpers import state_sub_oracle

HALF = Fraction(1, 2)
UNIVERSE = StateUniverse()
SMALL_PI = StateUniverse(locations=(1, 2), values=(0, 1))


def test_star_ram_disjoint_union():
    assert star(ram({1: 5}), ram({2: 7})) == ram({1: 5, 2: 7})


def test_star_ram_overlap_undefined():
    assert star(ram({1: 5}), ram({1: 5})) is None


def test_star_ram_pi_adds_permissions():
    assert star(ram_pi({42: (0, HALF)}), ram_pi({42: (0, HALF)})) == ram_pi({42: (0, 1)})


def test_star_ram_pi_value_disagreement_undefined():
    assert star(ram_pi({42: (0, HALF)}), ram_pi({42: (1, HALF)})) is None


def test_star_ram_pi_oversum_undefined():
    assert star(ram_pi({42: (0, 1)}), ram_pi({42: (0, HALF)})) is None


def test_star_mixed_algebras_rejected():
    with pytest.raises(ValueError):
        star(ram({1: 0}), ram_pi({1: (0, 1)}))


def test_mixed_algebras_message_spells_the_values():
    with pytest.raises(ValueError) as exc:
        state_sub(ram({1: 0}), ram_pi({1: (0, 1)}))
    assert str(exc.value) == "mixed algebras: ram vs ram_pi"


@pytest.mark.parametrize("op, left, right", [
    (foot_add, ram_foot([1]), ram_pi_foot({1: Full})),
    (foot_sub, ram_foot([1]), ram_pi_foot({1: Full})),
    (pred_star, predicate([ram({1: 0})]), predicate([ram_pi({2: (0, 1)})])),
], ids=["foot_add", "foot_sub", "pred_star"])
def test_every_mixed_algebra_check_spells_the_values(op, left, right):
    with pytest.raises(ValueError) as exc:
        op(left, right)
    assert str(exc.value) == "mixed algebras: ram vs ram_pi"


def test_state_sub_inverts_disjoint_union():
    assert state_sub(ram({1: 5, 2: 7}), ram({2: 7})) == ram({1: 5})


def test_state_sub_non_substate_undefined():
    assert state_sub(ram({1: 5}), ram({2: 7})) is None


def test_state_sub_ram_pi_splits_permission():
    assert state_sub(ram_pi({42: (0, 1)}), ram_pi({42: (0, HALF)})) == ram_pi({42: (0, HALF)})


def test_state_sub_agrees_with_universe_search():
    for algebra in Algebra:
        uni = UNIVERSE if algebra is Algebra.RAM else SMALL_PI
        states = uni.states(algebra)
        for s2 in states[:40]:
            for s1 in states[:40]:
                assert state_sub(s2, s1) == state_sub_oracle(s2, s1, uni)


def test_state_validation():
    with pytest.raises(ValueError):
        ram({0: 1})
    with pytest.raises(ValueError):
        ram_pi({1: (0, Fraction(3, 2))})
    with pytest.raises(ValueError):
        ram_pi({1: (0, 0)})


def test_pred_star_examples():
    p = predicate([ram({1: 0})])
    q = predicate([ram({2: 0})])
    assert pred_star(p, q).states == frozenset({ram({1: 0, 2: 0})})
    assert pred_star(p, p).states == frozenset()
    r = predicate([ram({1: 0}), ram({})])
    assert pred_star(r, p).states == frozenset({ram({1: 0})})


def test_is_precise_examples():
    assert is_precise(predicate([ram({42: 0})], Algebra.RAM),
                      StateUniverse(locations=(41, 42), values=(0, 1)))
    assert not is_precise(predicate([ram({42: 0}), ram({})]),
                          StateUniverse(locations=(41, 42), values=(0, 1)))
    assert is_precise(predicate([], Algebra.RAM), UNIVERSE)


def test_algebra_laws_ram():
    report = algebra_law_check(UNIVERSE, Algebra.RAM)
    assert report.passed, report.counterexamples[:3]


def test_algebra_laws_ram_pi():
    report = algebra_law_check(UNIVERSE, Algebra.RAM_PI)
    assert report.passed, report.counterexamples[:3]


def _keep_left(a, b):
    merged = dict(b.cells)
    merged.update(dict(a.cells))
    return State(Algebra.RAM, merged)


def test_broken_algebra_reports_cancellativity():
    report = algebra_law_check(UNIVERSE, Algebra.RAM, star_fn=_keep_left)
    assert not report.passed
    assert any(ce.law == "cancellativity" for ce in report.counterexamples)


def test_sub_star_exchange_exhaustive():
    # (s1 * s2) - s3 == (s1 - s3) * s2 whenever both premises are defined
    for algebra, uni in ((Algebra.RAM, UNIVERSE), (Algebra.RAM_PI, SMALL_PI)):
        states = uni.states(algebra)
        for s1 in states:
            subs = [(s3, state_sub(s1, s3)) for s3 in states
                    if state_sub(s1, s3) is not None]
            for s2 in states:
                if star(s1, s2) is None:
                    continue
                whole = star(s1, s2)
                for s3, diff in subs:
                    assert state_sub(whole, s3) == star(diff, s2)


def test_unit_element_is_empty_map():
    for algebra in Algebra:
        e = empty(algebra)
        assert e.is_empty()
        for s in UNIVERSE.states(algebra)[:20]:
            assert star(s, e) == s


def test_states_are_canonical_and_hashable():
    a = State(Algebra.RAM, [(2, 7), (1, 5)])
    b = ram({1: 5, 2: 7})
    assert a == b and hash(a) == hash(b)
    assert a.cells == ((1, 5), (2, 7))
    assert len({a, b}) == 1


def test_universe_enumeration_cache_is_bounded():
    u = StateUniverse(locations=(1,), values=(0,))
    assert u.states(Algebra.RAM) is u.states(Algebra.RAM)
    for v in range(70):
        StateUniverse(locations=(1,), values=(v,)).states(Algebra.RAM)
    info = StateUniverse.states.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64


def _assert_rebuilds(r):
    # a successor built without the checks equals the one the validating
    # constructor builds from its cells, hash included
    again = State(r.algebra, r.cells)
    assert r == again and hash(r) == hash(again)


@pytest.mark.parametrize("algebra", list(Algebra), ids=lambda a: a.value)
def test_trusted_successors_equal_validated_states(algebra):
    states = UNIVERSE.states(algebra)
    defined = {"star": 0, "state_sub": 0, "store": 0}
    for a in states:
        for b in states:
            for name, r in (("star", star(a, b)), ("state_sub", state_sub(a, b))):
                if r is not None:
                    _assert_rebuilds(r)
                    defined[name] += 1
        for loc in UNIVERSE.locations:
            for val in UNIVERSE.values:
                for t in UNIVERSE.threads:
                    r = prim_step(store(loc, val), t, a)
                    if r is not TOP:
                        (post,) = r
                        _assert_rebuilds(post)
                        defined["store"] += 1
    assert all(defined.values()), defined
