import copy
import json
import pickle
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from ownlin import (
    Algebra,
    BalancedHistory,
    LinWitness,
    State,
    balanced_linearized_by,
    call,
    check_well_formed,
    corpus,
    empty_foot,
    evaluate_footprint,
    interf,
    interface_set,
    interface_set_leq,
    is_balanced,
    is_sequential,
    linearized_by,
    ram,
    ram_foot,
    ram_pi,
    ret,
)
from ownlin.history import InterfaceAction, Kind, _multiset, check_witness
from ownlin.lang import Bounds
from ownlin.semantics import clear_caches
from ownlin.serialize import interface_set_from_json, interface_set_to_json

from helpers import (
    EMPTY,
    _order_ok,
    all_witnesses_bruteforce,
    delinearize,
    interface_set_leq_oracle,
    linearized_by_bruteforce,
    random_history,
    thread_order_shuffle,
)

C10 = ram({10: 0})


def test_well_formedness():
    assert check_well_formed(())
    assert check_well_formed((call(1, "m", EMPTY), ret(1, "m", EMPTY)))
    assert not check_well_formed((ret(1, "m", EMPTY),))
    assert not check_well_formed((call(1, "m", EMPTY), ret(1, "n", EMPTY)))
    assert not check_well_formed((call(1, "m", EMPTY), call(1, "m", EMPTY)))
    # a pending call needs no completion
    assert check_well_formed((call(1, "m", EMPTY),))


def test_evaluate_footprint_empty_history():
    l = ram_foot([1, 2])
    assert evaluate_footprint((), l) == l


def test_double_transfer_rejected():
    h = (call(1, "m", C10), call(2, "m2", C10))
    assert evaluate_footprint(h, ram_foot()) is None
    assert not is_balanced(h, ram_foot())


def test_transfer_return_transfer_accepted():
    h = (call(1, "m", C10), ret(1, "m", C10), call(2, "m2", C10))
    assert evaluate_footprint(h, ram_foot()) == ram_foot([10])
    assert is_balanced(h, ram_foot())


def test_footprint_evaluation_composes():
    rng = random.Random(11)
    for _ in range(200):
        h = random_history(rng, rng.randrange(0, 8))
        cut = rng.randrange(0, len(h) + 1)
        l = ram_foot()
        via_prefix = evaluate_footprint(h[:cut], l)
        whole = evaluate_footprint(h, l)
        if via_prefix is None:
            assert whole is None
        else:
            assert whole == evaluate_footprint(h[cut:], via_prefix)


def test_linearized_by_reflexive():
    rng = random.Random(5)
    for _ in range(50):
        h = random_history(rng, rng.randrange(0, 8))
        w = linearized_by(h, h)
        assert w is not None and check_witness(h, h, w)


def test_concurrent_invocations_may_be_ordered():
    s, s1, s2 = EMPTY, ram({1: 0}), ram({2: 0})
    h = (call(1, "a", s), call(2, "b", s1), ret(1, "a", s2))
    h2 = (call(1, "a", s), ret(1, "a", s2), call(2, "b", s1))
    w = linearized_by(h, h2)
    assert w is not None and check_witness(h, h2, w)
    assert linearized_by_bruteforce(h, h2)


def test_non_overlapping_order_preserved():
    s = EMPTY
    h = (call(1, "a", s), ret(1, "a", s), call(2, "b", s))
    h2 = (call(1, "a", s), call(2, "b", s), ret(1, "a", s))
    assert linearized_by(h, h2) is None
    assert not linearized_by_bruteforce(h, h2)


def test_transferred_states_must_match_exactly():
    h = (call(1, "a", ram({1: 0})),)
    h2 = (call(1, "a", ram({1: 1})),)
    assert linearized_by(h, h2) is None


def test_linearized_implies_multiset_and_thread_projection_equality():
    rng = random.Random(19)
    for _ in range(300):
        h = random_history(rng, rng.randrange(1, 9))
        h2 = thread_order_shuffle(rng, h)
        if linearized_by(h, h2) is None:
            continue
        assert Counter(h) == Counter(h2)
        for t in {a.thread for a in h}:
            assert tuple(a for a in h if a.thread == t) == \
                tuple(a for a in h2 if a.thread == t)


def test_linearized_by_transitive_on_samples():
    rng = random.Random(23)
    hits = 0
    while hits < 40:
        h = random_history(rng, rng.randrange(2, 8))
        h2 = thread_order_shuffle(rng, h)
        h3 = thread_order_shuffle(rng, h2)
        if linearized_by(h, h2) is not None and linearized_by(h2, h3) is not None:
            hits += 1
            assert linearized_by(h, h3) is not None


def test_forced_mapping_agrees_with_bruteforce_random():
    rng = random.Random(37)
    for _ in range(500):
        h = random_history(rng, rng.randrange(0, 8))
        h2 = thread_order_shuffle(rng, h)
        got = linearized_by(h, h2)
        want = linearized_by_bruteforce(h, h2)
        assert (got is not None) == want
        if got is not None:
            assert check_witness(h, h2, got)


def test_linearized_by_long_history_needs_no_recursion():
    h = ()
    for _ in range(700):
        h += (call(1, "m", EMPTY), ret(1, "m", EMPTY))
    assert linearized_by(h, h) == LinWitness(tuple(range(1400)))


def test_witness_is_the_least_valid_mapping():
    rng = random.Random(41)
    outcomes = Counter()
    for _ in range(400):
        if rng.random() < 0.5:  # many equal actions: few threads, one method
            h = random_history(rng, rng.randrange(0, 9), threads=(1, 2),
                               methods=("a",), states=(EMPTY,))
        else:
            h = random_history(rng, rng.randrange(0, 8))
        cut = rng.randrange(0, len(h) + 1)
        h2 = h[:cut] + (thread_order_shuffle(rng, h[cut:]) if rng.random() < 0.5
                        else delinearize(rng, h[cut:], 4))
        if rng.random() < 0.5:
            h, h2 = h2, h
        every = list(all_witnesses_bruteforce(h, h2))
        got = linearized_by(h, h2)
        assert got == (LinWitness(min(every)) if every else None)
        # where the histories agree on a prefix, the witness is the identity there
        agree = next((i for i, (a, b) in enumerate(zip(h, h2)) if a != b), min(len(h), len(h2)))
        if got is not None:
            assert got.mapping[:agree] == tuple(range(agree))
        outcomes[bool(every), agree > 0] += 1
    # no witness; a witness on histories that agree on a prefix, and on ones that do not
    assert outcomes[False, True] and outcomes[True, True] and outcomes[True, False]


def _random_pair(rng):
    if rng.random() < 0.5:  # many equal actions: few threads, one method
        h = random_history(rng, rng.randrange(0, 9), threads=(1, 2),
                           methods=("a",), states=(EMPTY,))
    else:
        h = random_history(rng, rng.randrange(0, 8))
    h2 = thread_order_shuffle(rng, h) if rng.random() < 0.5 else delinearize(rng, h, 4)
    return (h, h2) if rng.random() < 0.5 else (h2, h)


def test_a_witness_is_unique():
    # equal actions name one thread, whose order every witness keeps, so the
    # forced occurrence mapping is the only candidate
    rng = random.Random(53)
    found = 0
    for _ in range(400):
        h, h2 = _random_pair(rng)
        every = list(all_witnesses_bruteforce(h, h2))
        assert len(every) <= 1
        found += len(every)
    assert found


def test_check_witness_agrees_with_the_pairwise_oracle():
    rng = random.Random(59)
    verdicts = Counter()
    for _ in range(600):
        h, h2 = _random_pair(rng)
        if rng.random() < 0.3:  # any order, even one no thread could run
            h2 = tuple(rng.sample(h2, len(h2)))
        mapping = list(range(len(h)))
        rng.shuffle(mapping)
        if rng.random() < 0.5:  # near a witness: the forced one, then a swap or two
            forced = linearized_by(h, h2)
            mapping = list(forced.mapping) if forced is not None else mapping
            for _ in range(rng.randrange(0, 3)):
                if len(h) > 1:
                    i, j = rng.sample(range(len(h)), 2)
                    mapping[i], mapping[j] = mapping[j], mapping[i]
        got = check_witness(h, h2, LinWitness(tuple(mapping)))
        assert got == _order_ok(h, h2, mapping)
        verdicts[got] += 1
    assert verdicts[True] and verdicts[False]
    twice = (call(1, "a", EMPTY),) * 2
    assert not check_witness(twice, twice, LinWitness((0, 0)))
    assert not check_witness(twice, twice, LinWitness((0,)))


def _random_entries(rng, count, feet):
    out = []
    while len(out) < count:
        h = random_history(rng, rng.randrange(0, 7), threads=(1, 2), methods=("a",),
                           states=(EMPTY, EMPTY, C10))
        initial = rng.choice(feet)
        if is_balanced(h, initial):
            out.append(BalancedHistory(initial, h))
    return out


def test_bucketed_leq_equals_a_nested_scan():
    # ram_foot([10]) and ram_foot([11]) are incomparable footprints
    feet = (ram_foot(), ram_foot([10]), ram_foot([11]), ram_foot([10, 11]))
    rng = random.Random(43)
    matched = unmatched = 0
    for _ in range(60):
        right = _random_entries(rng, rng.randrange(0, 12), feet)
        right.append(BalancedHistory(rng.choice(feet), ()))
        left = _random_entries(rng, rng.randrange(0, 4), feet)
        for origin in right:  # same actions as a right entry, in other orders
            h = (thread_order_shuffle(rng, origin.history) if rng.random() < 0.5
                 else delinearize(rng, origin.history, 3))
            initial = rng.choice(feet)
            if is_balanced(h, initial):
                left.append(BalancedHistory(initial, h))
        a, b = interface_set(left), interface_set(right)
        report = interface_set_leq(a, b)
        assert report == interface_set_leq_oracle(a, b)
        assert interface_set_leq(b, a) == interface_set_leq_oracle(b, a)
        matched += len(report.entries) - len(report.failures())
        unmatched += len(report.failures())
    assert matched and unmatched


def test_leq_keys_actions_exactly_and_rejects_mixed_algebras():
    ram_empty, pi_empty = State(Algebra.RAM, {}), State(Algebra.RAM_PI, {})
    assert ram_empty.sort_key() == pi_empty.sort_key()  # a sort key would tie
    h_ram, h_pi = (call(1, "a", ram_empty),), (call(1, "a", pi_empty),)
    assert _multiset(h_ram) != _multiset(h_pi)
    ram_side = interface_set([BalancedHistory(ram_foot(), h_ram)])
    pi_side = interface_set([BalancedHistory(empty_foot(Algebra.RAM_PI), h_pi)])
    for a, b in ((ram_side, pi_side), (pi_side, ram_side)):
        with pytest.raises(ValueError, match="mixed algebras"):
            interface_set_leq_oracle(a, b)
        with pytest.raises(ValueError, match="mixed algebras"):
            interface_set_leq(a, b)


def test_balanced_linearized_by():
    l = ram_foot([10])
    h = (call(1, "m", C10),)
    bh = BalancedHistory(ram_foot(), h)
    assert balanced_linearized_by(bh, bh)
    # abstract side may not need more memory
    bigger = BalancedHistory(l, ())
    smaller = BalancedHistory(ram_foot(), ())
    assert balanced_linearized_by(bigger, smaller)
    assert not balanced_linearized_by(smaller, bigger)


def test_balanced_history_validates():
    with pytest.raises(ValueError):
        BalancedHistory(ram_foot(), (call(1, "m", C10), call(2, "m", C10)))
    with pytest.raises(ValueError):
        BalancedHistory(ram_foot(), (ret(1, "m", C10),))


def test_interface_set_leq():
    h = (call(1, "m", C10), ret(1, "m", C10))
    a = interface_set([BalancedHistory(ram_foot(), h)])
    b = interface_set([BalancedHistory(ram_foot(), h),
                       BalancedHistory(ram_foot([10]), ())])
    empty_set = interface_set([])
    assert interface_set_leq(empty_set, a).holds
    assert interface_set_leq(a, a).holds
    report = interface_set_leq(b, a)
    assert not report.holds
    assert len(report.failures()) == 1


def test_extra_calls_footprint_accounting():
    # inserting extra (pending) calls into a balanced history combines their
    # footprints on top of the original final footprint, and evaluation from
    # a larger compatible start stays pointwise larger
    from ownlin import delta, foot_add, foot_leq

    rng = random.Random(77)
    checked = 0
    while checked < 150:
        base = random_history(rng, rng.randrange(0, 7),
                              states=(ram({1: 0}), ram({2: 1}), EMPTY))
        l2 = ram_foot()
        if evaluate_footprint(base, l2) is None:
            continue
        extra_cells = rng.sample((5, 6, 7), k=rng.randrange(1, 3))
        extras = [call(10 + i, "x", ram({c: 0})) for i, c in enumerate(extra_cells)]
        with_extras = list(base)
        for a in extras:
            with_extras.insert(rng.randrange(0, len(with_extras) + 1), a)
        s = tuple(with_extras)
        l1 = l2
        if evaluate_footprint(s, l1) is None:
            continue
        checked += 1
        l_c = ram_foot()
        for a in extras:
            l_c = foot_add(l_c, delta(a.transferred))
            assert l_c is not None
        assert evaluate_footprint(base, l1) is not None
        assert evaluate_footprint(s, l1) == \
            foot_add(evaluate_footprint(base, l1), l_c)
        assert foot_leq(evaluate_footprint(base, l2),
                        evaluate_footprint(base, l1))


def test_is_sequential():
    assert is_sequential(())
    assert is_sequential((call(1, "m", EMPTY), ret(1, "m", EMPTY)))
    assert is_sequential((call(1, "m", EMPTY),))  # trailing pending call
    assert not is_sequential(
        (call(1, "m", EMPTY), call(2, "n", EMPTY), ret(1, "m", EMPTY)))


# one action over each algebra, with the repr and sort key the dataclass
# implementation gave them
PINNED_ACTIONS = (
    ((1, Kind.CALL, "push", ram({1: 7, 3: 0})),
     "(1,call push([1:7, 3:0]))",
     (1, "call", "push", (2, ((1, 7), (3, 0))))),
    ((2, Kind.RET, "pop", ram_pi({2: (5, Fraction(1, 2)), 1: (0, 1)})),
     "(2,ret pop([1:(0,1), 2:(5,1/2)]))",
     (2, "ret", "pop", (2, ((1, (0, Fraction(1))), (2, (5, Fraction(1, 2))))))),
    ((1, Kind.CALL, "a", State(Algebra.RAM_PI, {})),
     "(1,call a([]))",
     (1, "call", "a", (0, ()))),
)


@pytest.mark.parametrize("fields, text, key", PINNED_ACTIONS)
def test_actions_are_interned_values(fields, text, key):
    a = InterfaceAction(*fields)
    thread, kind, method, transferred = fields
    # a second build from separately built equal fields is the same object
    again = InterfaceAction(thread, kind, method, copy.deepcopy(transferred))
    assert again == a and again is a
    assert hash(a) == hash((a.thread, a.kind, a.method, a.transferred))
    assert repr(a) == text
    assert a.sort_key() == key
    for name in ("thread", "kind", "method", "transferred"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
    assert (a.thread, a.kind, a.method, a.transferred) == fields
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert clone == a and hash(clone) == hash(a)
    assert a != fields and (a == fields) is False


def test_actions_compare_by_value_across_a_cache_clear():
    fields = (1, Kind.CALL, "push", ram({1: 7}))
    a = InterfaceAction(*fields)
    table = {a: "a"}
    clear_caches()
    b = InterfaceAction(*fields)
    assert b is not a
    assert b == a and a == b and hash(b) == hash(a)
    assert table[b] == "a"
    assert InterfaceAction(*fields) is b


def test_actions_built_by_racing_threads_are_equal():
    states = [ram({loc: v}) for loc in (1, 2, 3) for v in (0, 1)]
    fields = [(t, k, m, s) for t in (1, 2) for k in Kind for m in ("push", "pop")
              for s in states]
    built: list[list] = [[] for _ in range(6)]  # more threads than cores
    start = threading.Barrier(len(built))

    def build(out):
        start.wait(timeout=30)
        for _ in range(20):
            out.append([InterfaceAction(*f) for f in fields])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            clear_caches()
            threads = [threading.Thread(target=build, args=(out,)) for out in built]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    reference = [InterfaceAction(*f) for f in fields]
    for out in built:
        assert len(out) == 100
        for actions in out:
            assert actions == reference
            assert [hash(a) for a in actions] == [hash(f) for f in fields]


SMALL = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=2, max_trace_len=8)
# the corpus pairs of the check_lin tests, each with a small bound and
# whether its left set is below its right one there
LEQ_PAIRS = (
    (corpus.mini_stack, corpus.MINI_INITIAL, corpus.mini_stack, corpus.MINI_INITIAL,
     SMALL, True),
    (corpus.mini_stack_slow, corpus.MINI_INITIAL, corpus.mini_stack, corpus.MINI_INITIAL,
     SMALL, True),
    (corpus.lock_stack, corpus.LOCK_STACK_INITIAL, corpus.plain_stack, corpus.PLAIN_INITIAL,
     SMALL, True),
    (corpus.plain_stack, corpus.PLAIN_INITIAL, corpus.plain_queue, corpus.PLAIN_INITIAL,
     corpus.SEQUENTIAL_BOUNDS, False),
)


@pytest.mark.parametrize("lib1, initial1, lib2, initial2, bounds, holds", LEQ_PAIRS)
def test_leq_of_decoded_actions_equals_the_nested_scan(lib1, initial1, lib2, initial2,
                                                      bounds, holds):
    # the left set's actions are rebuilt from JSON after the table is
    # emptied, so they are other objects than the right set's equal ones
    gamma = corpus.gamma_val()
    right = interf(lib2(), gamma, initial2, bounds)
    left = interf(lib1(), gamma, initial1, bounds)
    text = json.dumps(interface_set_to_json(left))
    clear_caches()
    decoded = interface_set_from_json(json.loads(text))
    assert decoded == left
    old = {id(a) for e in left.entries for a in e.history}
    assert old and not any(id(a) in old for e in decoded.entries for a in e.history)
    report = interface_set_leq(decoded, right)
    assert report.holds is holds
    assert report == interface_set_leq_oracle(decoded, right)
    assert report == interface_set_leq(left, right)
