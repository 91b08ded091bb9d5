import pytest

from ownlin import StateUniverse, expr_eval, prim_step, ram, ram_pi, validate_transformer
from ownlin.lang import (
    Add,
    Assume,
    Bounds,
    CallMethod,
    Choice,
    ClientProgram,
    CmdAction,
    Deref,
    IntLit,
    Not,
    PlainCall,
    PlainRet,
    Prim,
    SKIP,
    Seq,
    Star,
    TID,
    TOP,
    assume,
    client_trace_set,
    complete_trace_set,
    desugar_if,
    desugar_while,
    library,
    library_trace_set,
    seq,
    store,
)
from ownlin.history import check_well_formed

from helpers import conditional_cell_writer, neighbour_dependent_writer

UNIVERSE = StateUniverse()


def test_expr_eval():
    assert expr_eval(Deref(IntLit(1)), ram({1: 5}), 1) == 5
    assert expr_eval(Deref(IntLit(2)), ram({1: 5}), 1) is TOP
    assert expr_eval(Not(IntLit(0)), ram({}), 1) == 1
    assert expr_eval(Not(IntLit(7)), ram({}), 1) == 0
    assert expr_eval(TID, ram({}), 3) == 3
    assert expr_eval(Add(Deref(IntLit(1)), IntLit(2)), ram({1: 5}), 1) == 7
    # permission ignored when reading
    assert expr_eval(Deref(IntLit(1)), ram_pi({1: (9, "1/2")}), 1) == 9


def test_expr_eval_fault_propagates():
    assert expr_eval(Add(Deref(IntLit(9)), IntLit(1)), ram({}), 1) is TOP
    assert expr_eval(Not(Deref(IntLit(9))), ram({}), 1) is TOP


def test_prim_step_store():
    assert prim_step(store(1, 7), 1, ram({1: 5})) == frozenset({ram({1: 7})})
    assert prim_step(store(1, 7), 1, ram({})) is TOP
    # read permission does not allow writing
    assert prim_step(store(1, 7), 1, ram_pi({1: (5, "1/2")})) is TOP
    assert prim_step(store(1, 7), 1, ram_pi({1: (5, 1)})) == \
        frozenset({ram_pi({1: (7, 1)})})


@pytest.mark.parametrize("value", (1.5, True, "1"), ids=repr)
def test_integer_literal_rejects_other_values(value):
    # a store puts the value it computes into a state without checking it
    with pytest.raises(TypeError):
        IntLit(value)


def test_prim_step_assume():
    assert prim_step(assume(Deref(IntLit(1))), 1, ram({1: 0})) == frozenset()
    assert prim_step(assume(Deref(IntLit(1))), 1, ram({1: 2})) == \
        frozenset({ram({1: 2})})
    assert prim_step(assume(Deref(IntLit(2))), 1, ram({1: 0})) is TOP
    assert prim_step(SKIP, 1, ram({})) == frozenset({ram({})})


def test_builtin_transformers_pass_both_properties():
    for c in (SKIP, store(1, 7), assume(Deref(IntLit(1)))):
        report = validate_transformer(c, UNIVERSE)
        assert report.passed, report.counterexamples[:3]


def test_conditional_cell_writer_violates_locality():
    report = validate_transformer(conditional_cell_writer, UNIVERSE)
    assert not report.passed
    first = report.counterexamples[0]
    assert first.law == "locality"
    assert first.inputs == (1, ram({}), ram({1: 1}))


def test_neighbour_dependent_writer_violates_strong_locality():
    report = validate_transformer(neighbour_dependent_writer, UNIVERSE)
    assert not report.passed
    first = report.counterexamples[0]
    assert first.law == "strong_locality"
    assert first.inputs == (1, ram({1: 0}), ram({2: 0}))


def test_desugar_if():
    c = desugar_if(IntLit(1), Prim(SKIP), Prim(SKIP))
    assert c == Choice(Seq(Prim(Assume(IntLit(1))), Prim(SKIP)),
                       Seq(Prim(Assume(Not(IntLit(1)))), Prim(SKIP)))


def test_desugar_while():
    c = desugar_while(IntLit(0), Prim(SKIP))
    assert c == Seq(Star(Seq(Prim(Assume(IntLit(0))), Prim(SKIP))),
                    Prim(Assume(Not(IntLit(0)))))


def test_library_rejects_nested_calls():
    with pytest.raises(ValueError):
        library({"m": Seq(Prim(SKIP), CallMethod("n"))})


B1 = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=1, max_trace_len=10)


def test_trace_set_sequencing_with_prefixes():
    ts = client_trace_set(ClientProgram((seq(Prim(SKIP), Prim(store(1, 1))),)), B1)
    assert ts == {
        (),
        (CmdAction(1, SKIP),),
        (CmdAction(1, SKIP), CmdAction(1, store(1, 1))),
    }


def test_trace_set_two_threads_interleave():
    ts = client_trace_set(ClientProgram((Prim(SKIP), Prim(store(1, 1)))), B1)
    assert len(ts) == 5  # empty, two singletons, two orders


def test_trace_set_mgc_wraps_method_bodies():
    lib = library({"m": Prim(SKIP)})
    ts = library_trace_set(lib, B1)
    full = (PlainCall(1, "m"), CmdAction(1, SKIP), PlainRet(1, "m"))
    assert full in ts
    for i in range(len(full)):
        assert full[:i] in ts


def test_trace_set_well_formed_and_prefix_closed():
    lib = library({"m": Choice(Prim(SKIP), Prim(store(4, 1))), "n": Prim(SKIP)})
    bounds = Bounds(star_unroll=1, mgc_iters=2, mgc_threads=2, max_trace_len=7)
    ts = library_trace_set(lib, bounds)
    for tau in ts:
        assert check_well_formed(tau)
        assert tau[:-1] in ts or not tau
        assert len(tau) <= bounds.max_trace_len
    # commands are skipped; ground calls and returns must alternate per thread
    assert not check_well_formed((PlainRet(1, "m"),))
    assert not check_well_formed((PlainCall(1, "m"), CmdAction(1, SKIP), PlainCall(1, "n")))
    assert not check_well_formed((PlainCall(1, "m"), PlainRet(1, "n")))


def test_trace_set_monotone_in_bounds():
    lib = library({"m": Star(Prim(SKIP))})
    small = library_trace_set(lib, Bounds(1, 1, 1, 6))
    bigger_star = library_trace_set(lib, Bounds(2, 1, 1, 6))
    longer = library_trace_set(lib, Bounds(1, 1, 1, 8))
    more_iters = library_trace_set(lib, Bounds(1, 2, 1, 8))
    assert small <= bigger_star
    assert small <= longer
    assert library_trace_set(lib, Bounds(1, 1, 1, 8)) <= more_iters


def test_bounds_reject_degenerate_values():
    for bad in ({"star_unroll": -1}, {"mgc_iters": 0}, {"mgc_threads": 0},
                {"max_trace_len": -1}):
        with pytest.raises(ValueError, match=f"bound {next(iter(bad))} must be at least"):
            Bounds(**bad)
    Bounds(star_unroll=0, mgc_iters=1, mgc_threads=1, max_trace_len=0)


def test_star_unrolling_bound():
    c = Star(Prim(SKIP))
    ts = client_trace_set(ClientProgram((c,)), Bounds(3, 1, 1, 10))
    assert max(len(t) for t in ts) == 3


def test_open_client_runs_methods_as_empty_bodies():
    lib = library({"m": Prim(SKIP)})
    client = ClientProgram((CallMethod("m"),))
    assert (PlainCall(1, "m"), PlainRet(1, "m")) in client_trace_set(client, B1)
    assert (PlainCall(1, "m"), CmdAction(1, SKIP), PlainRet(1, "m")) in \
        complete_trace_set(lib, client, B1)
