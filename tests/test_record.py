"""Value classes built by ``record`` behave as the frozen dataclasses they
replaced: equal, hashed, printed, pickled and copied alike, and immutable."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import re

import pytest

import ownlin
from ownlin import _record, corpus, ram
from ownlin.algebra import (
    Algebra,
    CounterExample,
    LawReport,
    ParamPredicate,
    Predicate,
    StateUniverse,
)
from ownlin.checker import Status, Verdict
from ownlin.frame import FrameReport, Hypothesis4Witness
from ownlin.history import BalancedHistory, InterfaceSet, LinWitness, call
from ownlin.lang import (
    SKIP,
    TID,
    Add,
    Assume,
    Bounds,
    CallMethod,
    Choice,
    ClientProgram,
    CmdAction,
    Deref,
    IntLit,
    Library,
    MethodSpec,
    Neg,
    Not,
    PlainCall,
    PlainRet,
    Prim,
    Program,
    Seq,
    Skip,
    Star,
    Store,
    Tid,
)
from ownlin.rearrange import RearrangeLog, StageRecord, SwapStep
from ownlin.semantics import ClientLocal, Complete, Denotation, EvalResult, LibraryLocal, interf


def _classes():
    for info in pkgutil.iter_modules(ownlin.__path__):
        module = importlib.import_module(f"ownlin.{info.name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value


def _is_record(cls) -> bool:
    return getattr(cls.__init__, "__module__", None) == _record.__name__


RECORDS = sorted((cls for cls in _classes() if _is_record(cls)), key=lambda c: c.__qualname__)

S = ram({1: 7})
PRED = Predicate(Algebra.RAM, frozenset({S}))
GAMMA = corpus.gamma_val()
HSET = interf(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL, Bounds(1, 1, 1, 4))
ENTRY = HSET.sorted_entries()[-1]
SWAP = SwapStep(0, "commute")
STAGE = StageRecord(1, 2, (SWAP,))
EXAMPLES = {
    Predicate: PRED,
    ParamPredicate: ParamPredicate(((1, PRED),), PRED),
    StateUniverse: StateUniverse(),
    CounterExample: CounterExample("law", (S,), 1, 2),
    LawReport: LawReport(False, (CounterExample("law", (S,), 1, 2),)),
    Verdict: Verdict(Status.VIOLATED, "1 miss", ("a line",)),
    Hypothesis4Witness: Hypothesis4Witness(S, ram({}), (CmdAction(1, SKIP),),
                                           (call(1, "push", S),), 0),
    FrameReport: FrameReport(Status.HOLDS_AT_BOUNDS, True, (("lib1:base", True),), True,
                             None, None, None),
    LinWitness: LinWitness((1, 0)),
    BalancedHistory: ENTRY,
    InterfaceSet: HSET,
    IntLit: IntLit(1),
    Tid: TID,
    Deref: Deref(IntLit(1)),
    Add: Add(IntLit(1), TID),
    Neg: Neg(IntLit(1)),
    Not: Not(IntLit(0)),
    Skip: SKIP,
    Store: Store(IntLit(1), TID),
    Assume: Assume(IntLit(1)),
    Prim: Prim(SKIP),
    CallMethod: CallMethod("push"),
    Seq: Seq(Prim(SKIP), CallMethod("pop")),
    Choice: Choice(Prim(SKIP), CallMethod("pop")),
    Star: Star(Prim(SKIP)),
    Library: corpus.mini_stack(),
    ClientProgram: corpus.push_pop_client(),
    MethodSpec: GAMMA,
    CmdAction: CmdAction(2, SKIP),
    PlainCall: PlainCall(1, "push"),
    PlainRet: PlainRet(1, "push"),
    Bounds: Bounds(1, 2, 2, 9),
    Program: corpus.lock_stack_program(),
    SwapStep: SWAP,
    StageRecord: STAGE,
    RearrangeLog: RearrangeLog((STAGE,)),
    Complete: Complete(),
    LibraryLocal: LibraryLocal(GAMMA),
    ClientLocal: ClientLocal(GAMMA),
    EvalResult: EvalResult(False, frozenset({(S, ())})),
    Denotation: Denotation(False, None, frozenset({()})),
}


def _names(cls) -> tuple[str, ...]:
    return tuple(name for name, ann in cls.__annotations__.items()
                 if not ann.startswith("ClassVar"))


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in _names(type(obj)))


def _dataclass_twin(obj):
    """``obj`` as an instance of a frozen dataclass of the same name and fields."""
    cls = type(obj)
    twin = dataclasses.make_dataclass(cls.__name__, _names(cls), frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin(*_values(obj))


def test_every_record_class_has_an_example():
    assert set(EXAMPLES) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_a_record_behaves_as_a_frozen_dataclass(cls):
    obj = EXAMPLES[cls]
    twin = _dataclass_twin(obj)
    assert hash(obj) == hash(_values(obj)) == hash(twin)
    assert hash(obj) == hash(obj)  # the kept hash
    assert repr(obj) == repr(twin)
    again = cls(*_values(obj))
    assert again == obj and not again != obj and again is not obj
    assert cls(**dict(zip(_names(cls), _values(obj)))) == obj
    assert obj != twin and obj.__eq__(_values(obj)) is NotImplemented
    assert obj.__reduce__() == (cls, _values(obj))  # the kept hash stays behind
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is cls and clone == obj and hash(clone) == hash(obj)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_a_record_is_immutable_and_has_no_instance_dict(cls):
    obj = EXAMPLES[cls]
    assert not hasattr(obj, "__dict__")
    for name in _names(cls) + ("other",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_records_differ_by_field_and_by_class():
    assert Bounds(1, 2, 2, 9) != Bounds(1, 2, 2, 10)
    assert IntLit(1) != IntLit(2) and Deref(IntLit(1)) != Deref(IntLit(2))
    assert Neg(IntLit(1)) != Not(IntLit(1))
    assert PlainCall(1, "push") != PlainRet(1, "push")
    assert Complete() == Complete() and Complete() != SKIP


def test_defaults_fill_the_fields_not_given():
    assert Bounds() == Bounds(3, 2, 2, 12) == Bounds(3, max_trace_len=12)
    assert Program(Algebra.RAM) == Program(Algebra.RAM, None, None, None, frozenset(),
                                           StateUniverse(), Bounds())
    assert Verdict(Status.HOLDS_AT_BOUNDS, "ok").details == ()
    assert ParamPredicate() == ParamPredicate((), None)
    assert StateUniverse().threads == (1, 2)
    assert LawReport(True).counterexamples == ()


@pytest.mark.parametrize("build", [
    lambda: Bounds(1, 2, 2, 9, 1),
    lambda: Bounds(1, star_unroll=1),
    lambda: Bounds(max_trace=9),
    lambda: Verdict(Status.VIOLATED),
    lambda: TID.__class__(1),
], ids=["too many", "twice", "unknown", "missing", "fieldless"])
def test_a_bad_argument_list_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_the_validators_still_run():
    with pytest.raises(ValueError, match="max_trace_len"):
        Bounds(max_trace_len=-1)
    with pytest.raises(TypeError, match="not an integer literal"):
        IntLit(True)
    with pytest.raises(ValueError, match="inconsistent"):
        LawReport(True, (CounterExample("law", (), 1, 2),))
    with pytest.raises(ValueError, match="calls another method"):
        Library((("push", CallMethod("pop")),))


def test_an_unhashable_field_fails_only_when_hashed():
    report = LawReport(False, (CounterExample("law", (), [1], 2),))
    assert report == LawReport(False, (CounterExample("law", (), [1], 2),))
    with pytest.raises(TypeError):
        hash(report)


def test_only_the_benchmark_reports_are_dataclasses():
    # a dataclass compiles its methods at import; ``record`` builds the rest
    assert {cls.__qualname__ for cls in _classes() if dataclasses.is_dataclass(cls)} == {
        "LeqEntry", "LeqReport"}
    assert not re.search(r"\b(exec|eval|compile)\(", inspect.getsource(_record))
