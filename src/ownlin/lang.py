"""Command language: expressions, primitive commands, programs, thread tries.

Commands are primitive commands, method calls, sequencing, nondeterministic
choice and finite iteration.  Conditionals and while loops are sugar over
``assume``.  Each thread's bounded traces grow straight from its command tree
into a prefix trie, a library's from that of its most general client; the
semantics module walks the product of those tries against states and
ownership transfers.  The trace sets, the interleaved prefixes of the tries
up to the length cap, serve as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Union

from .algebra import (
    Algebra,
    Recorder,
    LawReport,
    ParamPredicate,
    Predicate,
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

    def __post_init__(self):  # a store puts the value in a state unchecked
        if type(self.value) is not int:
            raise TypeError(f"not an integer literal: {self.value!r}")


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
            return frozenset((State._trusted(Algebra.RAM, new),))
        _, perm = cell  # type: ignore[misc]
        if perm != 1:
            return TOP
        new = dict(s.cells)
        new[addr] = (val, perm)
        return frozenset((State._trusted(Algebra.RAM_PI, new),))
    raise TypeError(f"not a primitive command: {c!r}")


Transformer = Callable[[int, State], Union[frozenset, Top]]


def prim_transformer(c: PrimCommand) -> Transformer:
    return lambda t, s: prim_step(c, t, s)


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
        raise ValueError(f"library has no method {m!r}")

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

    def _triple(self, m: str) -> tuple[str, ParamPredicate, ParamPredicate]:
        for triple in self.triples:
            if triple[0] == m:
                return triple
        raise ValueError(f"method {m!r} not in the specification")

    def pre(self, m: str) -> ParamPredicate:
        return self._triple(m)[1]

    def post(self, m: str) -> ParamPredicate:
        return self._triple(m)[2]

    def transfer(self, kind: Kind, m: str, t: int) -> Predicate:
        """The states a call (the precondition) or a return (the
        postcondition) of method ``m`` by thread ``t`` transfers."""
        _, p, q = self._triple(m)
        try:
            return (p if kind is Kind.CALL else q).for_thread(t)
        except KeyError:
            raise ValueError(f"the contract of method {m!r} does not cover thread {t}") from None

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
# per-thread tries and trace sets
# ---------------------------------------------------------------------------

class _Trie:
    """A prefix-closed set of traces: each node stands for the path to it."""

    __slots__ = ("children",)

    def __init__(self):
        self.children: dict[Action, _Trie] = {}

    def child(self, a: Action) -> "_Trie":
        """The child under ``a``, added when missing."""
        nxt = self.children.get(a)
        if nxt is None:
            nxt = self.children[a] = _Trie()
        return nxt

    @staticmethod
    def of(traces: Iterable[Trace]) -> "_Trie":
        root = _Trie()
        for tau in traces:
            node = root
            for a in tau:
                node = node.child(a)
        return root


def _grow(c: Command, t: int, lib: Library | None, bounds: Bounds,
          nodes: list[_Trie]) -> list[_Trie]:
    """Add the bounded traces of ``c``, run by thread ``t``, below each of
    ``nodes``; return the distinct nodes where they end.  A call runs its
    method body only when ``lib`` is given.  Children are added in command
    order, so the tries do not depend on hashing."""
    if isinstance(c, Prim):
        a = CmdAction(t, c.command)
        return [node.child(a) for node in nodes]
    if isinstance(c, CallMethod):
        inside = [node.child(PlainCall(t, c.method)) for node in nodes]
        if lib is not None:
            inside = _grow(lib.body(c.method), t, None, bounds, inside)
        return [node.child(PlainRet(t, c.method)) for node in inside]
    if isinstance(c, Seq):
        return _grow(c.second, t, lib, bounds, _grow(c.first, t, lib, bounds, nodes))
    if isinstance(c, Choice):
        ends = _grow(c.left, t, lib, bounds, nodes) + _grow(c.right, t, lib, bounds, nodes)
        return list(dict.fromkeys(ends))
    if isinstance(c, Star):
        ends = layer = nodes
        for _ in range(bounds.star_unroll):
            layer = _grow(c.body, t, lib, bounds, layer)
            ends = ends + layer
        return list(dict.fromkeys(ends))
    raise TypeError(f"not a command: {c!r}")


def most_general_client(lib: Library, bounds: Bounds) -> ClientProgram:
    """Each of ``mgc_threads`` threads makes ``mgc_iters`` rounds of calls,
    each round to any one method; a library without methods gets a client
    without threads, whose one trace is the empty one."""
    if not lib.methods:
        return ClientProgram(())
    call_any = choice(*(CallMethod(m) for m in lib.method_names))
    return ClientProgram((seq(*(call_any,) * bounds.mgc_iters),) * bounds.mgc_threads)


def _client_tries(client: ClientProgram, lib: Library | None, bounds: Bounds) -> tuple[_Trie, ...]:
    """One trie per client thread; with ``lib`` the calls run their bodies, as
    in a complete program or under the library's most general client."""
    roots = tuple(_Trie() for _ in client.threads)
    for t, (root, cmd) in enumerate(zip(roots, client.threads), 1):
        _grow(cmd, t, lib, bounds, [root])
    return roots


def _interleave_prefixes(tries: Iterable[_Trie], cap: int) -> Iterator[Trace]:
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

    yield from walk(list(tries))


def complete_trace_set(lib: Library, client: ClientProgram, bounds: Bounds) -> frozenset[Trace]:
    return frozenset(_interleave_prefixes(_client_tries(client, lib, bounds), bounds.max_trace_len))


def client_trace_set(client: ClientProgram, bounds: Bounds) -> frozenset[Trace]:
    return frozenset(_interleave_prefixes(_client_tries(client, None, bounds), bounds.max_trace_len))


def library_trace_set(lib: Library, bounds: Bounds) -> frozenset[Trace]:
    """The complete trace set of the library under its most general client."""
    return frozenset(_interleave_prefixes(
        _client_tries(most_general_client(lib, bounds), lib, bounds), bounds.max_trace_len))
