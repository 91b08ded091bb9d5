"""Linearizability with ownership transfer, at desk scale.

Heap states form a separation algebra (plain or fractional-permission);
histories annotate calls and returns with the transferred state; a small
command language gets library-local and client-local trace semantics; and
exhaustive bounded checkers decide linearizability between libraries,
validate the abstraction harnesses, and apply the frame rule for extended
ownership contracts.
"""

from .algebra import (
    Algebra,
    LawReport,
    ParamPredicate,
    Predicate,
    State,
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
from .footprint import (
    Footprint,
    delta,
    empty_foot,
    foot_add,
    foot_leq,
    foot_sub,
    footprint_law_check,
    ram_foot,
    ram_pi_foot,
)
from .history import (
    BalancedHistory,
    InterfaceAction,
    InterfaceSet,
    Kind,
    LinWitness,
    balanced_linearized_by,
    call,
    check_well_formed,
    evaluate_footprint,
    interface_set,
    interface_set_leq,
    is_balanced,
    is_sequential,
    linearized_by,
    ret,
)
from .lang import (
    Bounds,
    ClientProgram,
    Library,
    MethodSpec,
    Program,
    desugar_if,
    desugar_while,
    expr_eval,
    library,
    method_spec,
    prim_step,
    validate_transformer,
)
from .semantics import (
    ClientLocal,
    Complete,
    LibraryLocal,
    UnsafeComponentError,
    compose_decompose_check,
    eval_action,
    eval_program,
    eval_trace,
    interf,
)
from .rearrange import ConflictError, RearrangeLog, client_rearrange, rearrange, try_swap
from .frame import extends, extra_eval, floor_action, ceil_action, frame_check
from .checker import (
    Status,
    Verdict,
    abstraction_check_code,
    abstraction_check_spec,
    check_lin_code,
    check_lin_interface_set,
    inclusion_based_leq,
)

__all__ = [name for name in dir() if not name.startswith("_")]
