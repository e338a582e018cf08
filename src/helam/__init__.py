"""helam: a choreographic programming language with multiply-located values.

One global program describes every party's behavior; values live at sets of
parties; the `com` primitive multicasts data to a recipient set; and a
conditional type-checks only when its guard is located at every branching
party.  Well-typed choreographies project to per-party processes that are
deadlock-free under any scheduling.
"""

from .masking import mask_type, mask_value
from .network import (
    DeadlockReport, Network, enumerate_net_steps, explore, format_trace,
    simulate,
)
from .projection import floor, local_subst, project, project_all, roles
from .semantics import FuelExhausted, StuckError, run, step, subst
from .surface import CompiledProgram, DesugarError, ParseError, compile_text, parse, uniquify
from .syntax import (
    Behavior, ChorExpr, ChorType, ChorValue, PartySet, canonical_print,
    free_vars, parties,
)
from .typecheck import TypeEnv, TypeErr, typecheck

__version__ = "0.1.0"

__all__ = [
    "Behavior", "ChorExpr", "ChorType", "ChorValue", "CompiledProgram",
    "DeadlockReport", "DesugarError", "FuelExhausted", "Network",
    "ParseError", "PartySet", "StuckError", "TypeEnv", "TypeErr",
    "canonical_print", "compile_text", "enumerate_net_steps", "explore",
    "floor", "format_trace", "free_vars", "local_subst", "mask_type",
    "mask_value", "parse", "parties", "project", "project_all", "roles", "run",
    "simulate", "step", "subst", "typecheck", "uniquify",
]
