"""Workbench for a truly concurrent mobile-process calculus.

Parse terms, compute maximal-step transitions, unfold processes into
event structures, decide strong pomset / step / hp / hhp bisimilarity on
bounded state spaces, and prove equations via head normal forms.
"""

from .errors import (
    BadDefinition, DepthExceeded, InternalError, NotWeaklyGuarded, ParseError,
    PitcError, StateBudgetExceeded, UnguardedRecursion, UnknownIdentifier,
)
from .syntax import (
    NIL, TAU, Action, BoundOutput, Call, Definition, Environment, FreeOutput,
    Input, InputPrefix, Nil, OutputPrefix, Par, Process, Restriction, Sum,
    TauPrefix, alpha_eq, bound_names, canonical, free_names, fresh_name,
    substitute,
)
from .parser import format_process, load_file, parse_file, parse_term
from .semantics import Transition, format_label, label_alpha_eq, transitions
from .unfolding import (
    PomsetTransition, UnfoldedLTS, pomset_iso, pomset_transitions, unfold,
)
from .equivalences import (
    RelationVerdict, check, check_hhp, check_hp, check_pomset, check_step,
)
from .prover import (
    HeadNormalForm, ProofTrace, Prover, Summand, TraceStep, depth, expand,
    hnf, prove_eq, replay, weakly_guarded,
)

__version__ = "0.1.0"
