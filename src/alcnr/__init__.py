"""Decision procedures for ALCNR knowledge bases.

Satisfiability, concept satisfiability, subsumption, and instance checking
over knowledge bases with general (possibly cyclic) concept inclusions,
number restrictions, and role conjunction, via a constraint-system tableau
with witness-based blocking, plus canonical-model extraction and a bounded
brute-force model-search oracle for verification.
"""

from .syntax import (
    All, And, AtLeast, AtMost, BOTTOM, Bottom, Concept, ConceptAssertion,
    Inclusion, KnowledgeBase, Name, Not, Or, ParseError, Role, RoleAssertion,
    Some, TOP, Top, concept_key, is_simple, parse_concept, parse_kb,
    render_concept, render_kb, role, subconcepts, to_simple_form,
)
from .semantics import (
    Assignment, BUDGET_EXCEEDED, Interpretation, NOT_FOUND, eval_concept,
    find_model_bounded, holds_at, is_model, parse_interpretation, render_interpretation,
    role_pairs,
)
from .constraints import (
    ConstraintSystem, Distinct, Global, Ind, Member, RoleLink, SystemMetrics,
    Var, translate_kb,
)
from .tableau import (
    ClashReport, CompletionResult, Guards, RuleInstance, SearchStats, Trace,
    applicable_rule_instances, apply_rule_instance, complete, detect_clash,
    first_rule_instance, is_complete,
)
from .canonical import extract_model, satisfies_system
from .services import (
    InconclusiveError, TruthVerdict, UnknownIndividualError, Verdict,
    concept_satisfiable, instance_checks, instance_of, instances,
    kb_satisfiable, subsumed_by,
)
from .encodings import (
    domain_range_inclusions, equivalent_concept_of_tbox,
    inclusions_to_introduction, subrole,
)

__version__ = "0.1.0"
