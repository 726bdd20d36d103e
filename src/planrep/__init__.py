"""Ground planning instances, brute-force oracles, and compact executable
plan representations: stream and indexed access, acyclic macro grammars
with grammar induction, and atom-dependency analysis."""

from .constructions import (
    BlockConstants,
    CounterSpec,
    all_instances_instance,
    block_constants,
    choice_bits_from_plan,
    counter_instance,
    gray_code,
    indexed_plans_instance,
    plan_from_choice_bits,
    sat_verifier_instance,
    to_unary,
)
from .experiments import EXPERIMENTS, ExperimentReport, ReportRow, run_experiment
from .ffp import FfpAction, FfpInstance, is_deterministic, is_reversible, strips_to_ffp
from .grammar import (
    MacroGrammar,
    expand,
    induce_grammar,
    macro_access,
    macro_lengths,
    macro_validate,
    parse_grammar,
    serialize_grammar,
)
from .model import (
    LiteralSet,
    PlanTrace,
    State,
    StripsAction,
    StripsInstance,
    action_applicable,
    apply_update,
    is_unary,
    parse_instance,
    parse_plan,
    satisfies,
    serialize_instance,
    serialize_plan,
    step,
    validate_plan,
)
from .oracles import (
    CausalGraph,
    SearchResult,
    bfs_solve,
    causal_graph,
    count_optimal_plans,
    optplan_length,
    refined_causal_graph,
    scc_and_acyclicity,
)
from .representations import (
    AdviceBits,
    RandomAccessRep,
    RepMeta,
    SequentialRep,
    Verdict,
    as_random_access,
    as_stream,
    c16_crar,
    c16_csar,
    c26_csar,
    compute_advice,
    counter_crar,
    counter_macro,
    crar_to_csar,
    deterministic_csar,
    grammar_crar,
    macro_stream,
    resolve_builtin,
    reversible_csar,
    truncate,
    verify_representation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
