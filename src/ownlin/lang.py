"""Command language: expressions, primitive commands, programs, trace sets.

Commands are primitive commands, method calls, sequencing, nondeterministic
choice and finite iteration.  Conditionals and while loops are sugar over
``assume``.  Trace sets enumerate the order-theoretic behaviours of a program
(bounded iteration, bounded interleaving length, prefix closed); the
semantics module later filters them against states and ownership transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Union

from .algebra import (
    Algebra,
    Recorder,
    LawReport,
    ParamPredicate,
    State,
    StateUniverse,
    is_precise,
    star,
)
from .footprint import delta
from .history import InterfaceAction, Kind


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IntLit:
    value: int


@dataclass(frozen=True, slots=True)
class Tid:
    pass


@dataclass(frozen=True, slots=True)
class Deref:
    addr: "Expr"


@dataclass(frozen=True, slots=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Not:
    operand: "Expr"


Expr = Union[IntLit, Tid, Deref, Add, Neg, Not]

TID = Tid()


def lit(e: Expr | int) -> Expr:
    return IntLit(e) if isinstance(e, int) else e


class Top:
    """The fault result of expression evaluation and command transformers."""

    _instance: "Top | None" = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TOP"


TOP = Top()


def expr_eval(e: Expr, s: State, t: int) -> int | Top:
    """Evaluate an expression; dereferencing an absent cell faults.

    In RAM_PI the value component is read and permissions are ignored.
    """
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Tid):
        return t
    if isinstance(e, Deref):
        addr = expr_eval(e.addr, s, t)
        if addr is TOP:
            return TOP
        cell = s.lookup(addr) if isinstance(addr, int) and addr >= 1 else None
        if cell is None:
            return TOP
        if s.algebra is Algebra.RAM:
            return cell  # type: ignore[return-value]
        return cell[0]  # type: ignore[index]
    if isinstance(e, Add):
        a = expr_eval(e.left, s, t)
        b = expr_eval(e.right, s, t)
        if a is TOP or b is TOP:
            return TOP
        return a + b  # type: ignore[operator]
    if isinstance(e, Neg):
        a = expr_eval(e.operand, s, t)
        return TOP if a is TOP else -a  # type: ignore[operator]
    if isinstance(e, Not):
        a = expr_eval(e.operand, s, t)
        if a is TOP:
            return TOP
        return 1 if a == 0 else 0
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# primitive commands and their transformers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Skip:
    pass


@dataclass(frozen=True, slots=True)
class Store:
    addr: Expr
    value: Expr


@dataclass(frozen=True, slots=True)
class Assume:
    cond: Expr


PrimCommand = Union[Skip, Store, Assume]

SKIP = Skip()


def store(addr: Expr | int, value: Expr | int) -> Store:
    return Store(lit(addr), lit(value))


def assume(cond: Expr | int) -> Assume:
    return Assume(lit(cond))


def prim_step(c: PrimCommand, t: int, s: State) -> frozenset[State] | Top:
    """Post-states of one atomic command, or the fault result.

    Stores need the target cell present (RAM) or held at full permission
    (RAM_PI).  A false assume yields no post-states: that branch is stuck,
    not an error.
    """
    if isinstance(c, Skip):
        return frozenset((s,))
    if isinstance(c, Assume):
        v = expr_eval(c.cond, s, t)
        if v is TOP:
            return TOP
        return frozenset((s,)) if v != 0 else frozenset()
    if isinstance(c, Store):
        addr = expr_eval(c.addr, s, t)
        val = expr_eval(c.value, s, t)
        if addr is TOP or val is TOP:
            return TOP
        cell = s.lookup(addr) if isinstance(addr, int) and addr >= 1 else None
        if cell is None:
            return TOP
        if s.algebra is Algebra.RAM:
            new = dict(s.cells)
            new[addr] = val
            return frozenset((State(Algebra.RAM, new),))
        _, perm = cell  # type: ignore[misc]
        if perm != 1:
            return TOP
        new = dict(s.cells)
        new[addr] = (val, perm)
        return frozenset((State(Algebra.RAM_PI, new),))
    raise TypeError(f"not a primitive command: {c!r}")


Transformer = Callable[[int, State], Union[frozenset, Top]]


def prim_transformer(c: PrimCommand) -> Transformer:
    return lambda t, s: prim_step(c, t, s)


def conditional_cell_writer(t: int, s: State) -> frozenset[State] | Top:
    """Writes 0 to cell 1 only when it is allocated; a no-op otherwise.

    Built-in negative fixture: checks allocation without faulting, which
    breaks locality.
    """
    if s.lookup(1) is not None:
        new = dict(s.cells)
        new[1] = 0
        return frozenset((State(Algebra.RAM, new),))
    return frozenset((s,))


def neighbour_dependent_writer(t: int, s: State) -> frozenset[State] | Top:
    """Writes to cell 1 a value whose choice depends on whether cell 2 exists.

    Built-in negative fixture: local, but the extra state influences the
    effect, which breaks strong locality.
    """
    if s.lookup(1) is None:
        return TOP
    if s.lookup(2) is not None:
        new = dict(s.cells)
        new[1] = 0
        return frozenset((State(Algebra.RAM, new),))
    a = dict(s.cells)
    a[1] = 0
    b = dict(s.cells)
    b[1] = 1
    return frozenset((State(Algebra.RAM, a), State(Algebra.RAM, b)))


def validate_transformer(c: PrimCommand | Transformer, universe: StateUniverse,
                         algebra: Algebra = Algebra.RAM) -> LawReport:
    """Exhaustively check footprint preservation and (strong) locality.

    Footprint preservation: post-states keep the pre-state's footprint.
    Locality: running on a bigger state never does more than running on the
    smaller part composed with the untouched remainder; strong locality makes
    that an equality.  Violations are reported with witness states.
    """
    f: Transformer = prim_transformer(c) if isinstance(c, (Skip, Store, Assume)) else c
    states = universe.states(algebra)
    rec = Recorder()
    record = rec.record

    for t in universe.threads:
        results = {}
        for s in states:
            r = f(t, s)
            results[s] = r
            if r is TOP:
                continue
            d = delta(s)
            for s2 in r:
                if delta(s2) != d:
                    record("footprint_preservation", (t, s, s2), d, delta(s2))

        for s1 in states:
            r1 = results[s1]
            if r1 is TOP:
                continue
            for s2 in states:
                combined = star(s1, s2)
                if combined is None:
                    continue
                lhs = results.get(combined)
                if lhs is None:
                    lhs = f(t, combined)
                rhs = set()
                for out in r1:
                    c2 = star(out, s2)
                    if c2 is not None:
                        rhs.add(c2)
                if lhs is TOP or not set(lhs) <= rhs:
                    record("locality", (t, s1, s2), rhs, lhs)
                elif set(lhs) != rhs:
                    record("strong_locality", (t, s1, s2), rhs, set(lhs))

    return rec.report()


# ---------------------------------------------------------------------------
# commands, libraries, clients
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Prim:
    command: PrimCommand


@dataclass(frozen=True, slots=True)
class CallMethod:
    method: str


@dataclass(frozen=True, slots=True)
class Seq:
    first: "Command"
    second: "Command"


@dataclass(frozen=True, slots=True)
class Choice:
    left: "Command"
    right: "Command"


@dataclass(frozen=True, slots=True)
class Star:
    body: "Command"


Command = Union[Prim, CallMethod, Seq, Choice, Star]


def prim(c: PrimCommand) -> Prim:
    return Prim(c)


def seq(*cmds: Command) -> Command:
    if not cmds:
        return Prim(SKIP)
    out = cmds[-1]
    for c in reversed(cmds[:-1]):
        out = Seq(c, out)
    return out


def choice(*cmds: Command) -> Command:
    if not cmds:
        raise ValueError("choice of nothing")
    out = cmds[-1]
    for c in reversed(cmds[:-1]):
        out = Choice(c, out)
    return out


def desugar_if(cond: Expr, then_cmd: Command, else_cmd: Command) -> Command:
    return Choice(Seq(Prim(Assume(cond)), then_cmd),
                  Seq(Prim(Assume(Not(cond))), else_cmd))


def desugar_while(cond: Expr, body: Command) -> Command:
    return Seq(Star(Seq(Prim(Assume(cond)), body)), Prim(Assume(Not(cond))))


def _contains_call(c: Command) -> bool:
    if isinstance(c, CallMethod):
        return True
    if isinstance(c, Seq):
        return _contains_call(c.first) or _contains_call(c.second)
    if isinstance(c, Choice):
        return _contains_call(c.left) or _contains_call(c.right)
    if isinstance(c, Star):
        return _contains_call(c.body)
    return False


@dataclass(frozen=True)
class Library:
    """Method name to body; nested method calls are disallowed."""

    methods: tuple[tuple[str, Command], ...]

    def __post_init__(self):
        for name, body in self.methods:
            if _contains_call(body):
                raise ValueError(f"method {name!r} calls another method")

    def body(self, m: str) -> Command:
        for name, cmd in self.methods:
            if name == m:
                return cmd
        raise KeyError(m)

    @property
    def method_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.methods)


def library(methods: Mapping[str, Command]) -> Library:
    return Library(tuple(sorted(methods.items())))


@dataclass(frozen=True)
class ClientProgram:
    """Thread t runs ``threads[t-1]``."""

    threads: tuple[Command, ...]


@dataclass(frozen=True)
class MethodSpec:
    """Pre/post ownership-transfer contracts, one per method."""

    triples: tuple[tuple[str, ParamPredicate, ParamPredicate], ...]

    def pre(self, m: str) -> ParamPredicate:
        for name, p, _ in self.triples:
            if name == m:
                return p
        raise KeyError(m)

    def post(self, m: str) -> ParamPredicate:
        for name, _, q in self.triples:
            if name == m:
                return q
        raise KeyError(m)

    def __contains__(self, m: str) -> bool:
        return any(name == m for name, _, _ in self.triples)

    @property
    def method_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.triples)

    def check_precise(self, universe: StateUniverse) -> None:
        for name, p, q in self.triples:
            if not is_precise(p, universe):
                raise ValueError(f"precondition of {name!r} is not precise")
            if not is_precise(q, universe):
                raise ValueError(f"postcondition of {name!r} is not precise")


def method_spec(triples: Mapping[str, tuple[ParamPredicate, ParamPredicate]]) -> MethodSpec:
    return MethodSpec(tuple((m, p, q) for m, (p, q) in sorted(triples.items())))


# ---------------------------------------------------------------------------
# actions and traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CmdAction:
    thread: int
    command: PrimCommand
    kind: ClassVar[None] = None  # not an interface action


@dataclass(frozen=True, slots=True)
class PlainCall:
    thread: int
    method: str
    kind: ClassVar[Kind] = Kind.CALL


@dataclass(frozen=True, slots=True)
class PlainRet:
    thread: int
    method: str
    kind: ClassVar[Kind] = Kind.RET


Action = Union[CmdAction, PlainCall, PlainRet, InterfaceAction]
Trace = tuple[Action, ...]


def is_call(a: Action) -> bool:
    return a.kind is Kind.CALL


def is_interface(a: Action) -> bool:
    return a.kind is not None


@dataclass(frozen=True)
class Bounds:
    """Enumeration bounds: iteration unrolling, most-general-client size,
    and the interleaving length cap.  Raising any bound grows the trace set."""

    star_unroll: int = 3
    mgc_iters: int = 2
    mgc_threads: int = 2
    max_trace_len: int = 12

    def __post_init__(self):
        # under a zero client size or a negative bound nothing is explored,
        # and every check would pass vacuously
        for name, least in (("star_unroll", 0), ("mgc_iters", 1),
                            ("mgc_threads", 1), ("max_trace_len", 0)):
            if (value := getattr(self, name)) < least:
                raise ValueError(f"bound {name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class Program:
    """A complete program, an open library, or an open client.

    ``gamma`` specifies the methods crossing the open boundary.  ``initial``
    is the set of initial states the component owns.
    """

    algebra: Algebra
    library: Library | None = None
    client: ClientProgram | None = None
    gamma: MethodSpec | None = None
    initial: frozenset[State] = frozenset()
    universe: StateUniverse = StateUniverse()
    bounds: Bounds = Bounds()

    @property
    def kind(self) -> str:
        if self.library is not None and self.client is not None:
            return "complete"
        if self.library is not None:
            return "library"
        if self.client is not None:
            return "client"
        raise ValueError("program has neither library nor client")


# ---------------------------------------------------------------------------
# trace sets
# ---------------------------------------------------------------------------

Eta = Callable[[str, int], frozenset[Trace]]


def command_traces(c: Command, t: int, eta: Eta, bounds: Bounds) -> frozenset[Trace]:
    if isinstance(c, Prim):
        return frozenset(((CmdAction(t, c.command),),))
    if isinstance(c, CallMethod):
        out = set()
        for body in eta(c.method, t):
            out.add((PlainCall(t, c.method),) + body + (PlainRet(t, c.method),))
        return frozenset(out)
    if isinstance(c, Seq):
        first = command_traces(c.first, t, eta, bounds)
        second = command_traces(c.second, t, eta, bounds)
        return frozenset(a + b for a in first for b in second)
    if isinstance(c, Choice):
        return command_traces(c.left, t, eta, bounds) | command_traces(c.right, t, eta, bounds)
    if isinstance(c, Star):
        base = command_traces(c.body, t, eta, bounds)
        out = {()}
        layer = {()}
        for _ in range(bounds.star_unroll):
            layer = {a + b for a in layer for b in base}
            out |= layer
        return frozenset(out)
    raise TypeError(f"not a command: {c!r}")


class _Trie:
    __slots__ = ("children",)

    def __init__(self):
        self.children: dict[Action, _Trie] = {}

    def insert(self, tau: Trace) -> None:
        node = self
        for a in tau:
            nxt = node.children.get(a)
            if nxt is None:
                nxt = _Trie()
                node.children[a] = nxt
            node = nxt

    @staticmethod
    def of(traces: Iterable[Trace]) -> "_Trie":
        root = _Trie()
        for tau in traces:
            root.insert(tau)
        return root


def _interleave_prefixes(tries: list[_Trie], cap: int) -> Iterator[Trace]:
    """All prefixes (length <= cap) of interleavings of the per-thread traces.

    Actions carry their thread id, so every emitted sequence is produced by
    exactly one path: no deduplication is required.
    """
    prefix: list[Action] = []

    def walk(nodes: list[_Trie]) -> Iterator[Trace]:
        yield tuple(prefix)
        if len(prefix) >= cap:
            return
        for i, node in enumerate(nodes):
            for action, child in node.children.items():
                prefix.append(action)
                nodes[i] = child
                yield from walk(nodes)
                nodes[i] = node
                prefix.pop()

    yield from walk(tries)


def _interleaved_trace_set(per_thread: list[frozenset[Trace]], bounds: Bounds) -> frozenset[Trace]:
    tries = [_Trie.of(traces) for traces in per_thread]
    return frozenset(_interleave_prefixes(tries, bounds.max_trace_len))


def _method_eta(lib: Library, bounds: Bounds) -> Eta:
    cache: dict[tuple[str, int], frozenset[Trace]] = {}

    def eta(m: str, t: int) -> frozenset[Trace]:
        key = (m, t)
        if key not in cache:
            cache[key] = command_traces(lib.body(m), t, _empty_eta, bounds)
        return cache[key]

    return eta


def _empty_eta(m: str, t: int) -> frozenset[Trace]:
    return frozenset(((),))


def _complete_threads(lib: Library, client: ClientProgram, bounds: Bounds) -> list[frozenset[Trace]]:
    eta = _method_eta(lib, bounds)
    return [command_traces(cmd, t + 1, eta, bounds) for t, cmd in enumerate(client.threads)]


def _client_threads(client: ClientProgram, bounds: Bounds) -> list[frozenset[Trace]]:
    return [command_traces(cmd, t + 1, _empty_eta, bounds) for t, cmd in enumerate(client.threads)]


def _library_threads(lib: Library, bounds: Bounds) -> list[frozenset[Trace]]:
    """Most general client: each of N threads loops over arbitrary methods."""
    names = lib.method_names
    if not names:
        return []
    eta = _method_eta(lib, bounds)
    mgc = Star(choice(*(CallMethod(m) for m in names)))
    mgc_bounds = Bounds(star_unroll=bounds.mgc_iters,
                        mgc_iters=bounds.mgc_iters,
                        mgc_threads=bounds.mgc_threads,
                        max_trace_len=bounds.max_trace_len)
    return [command_traces(mgc, t, eta, mgc_bounds) for t in range(1, bounds.mgc_threads + 1)]


def complete_trace_set(lib: Library, client: ClientProgram, bounds: Bounds) -> frozenset[Trace]:
    return _interleaved_trace_set(_complete_threads(lib, client, bounds), bounds)


def client_trace_set(client: ClientProgram, bounds: Bounds) -> frozenset[Trace]:
    return _interleaved_trace_set(_client_threads(client, bounds), bounds)


def library_trace_set(lib: Library, bounds: Bounds) -> frozenset[Trace]:
    return _interleaved_trace_set(_library_threads(lib, bounds), bounds)
