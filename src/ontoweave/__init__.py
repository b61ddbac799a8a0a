"""Workbench for finitely presented consequence systems and ontologies:
bounded Hilbert-style derivability, fibring-based combination, ontology
connection, and splittable development graphs."""

from .consequence import (
    CalculusPresentation,
    Derived,
    Evidence,
    Fuel,
    NotDerivedWithin,
    Report,
    ReportEntry,
    Rule,
    Verdict,
    check_operator_laws,
    check_principles,
    check_structural,
    closure_bounded,
    derives,
    weaker_than,
)
from .devgraph import (
    DevGraph,
    Link,
    add_link,
    add_node,
    check_splitting_morphism,
    load_graph,
    save_graph,
    verify_decomposition,
    verify_heterogeneous_refinement,
    verify_homogeneous_refinement,
    verify_integration,
)
from .fibring import (
    FibringSession,
    dump_session,
    fibred_derives,
    h_closure,
    load_session,
    open_session,
)
from .morphisms import (
    Interning,
    SignatureMorphism,
    SplittingMorphism,
    Translation,
    apply_signature_morphism,
    apply_splitting,
    compose_signature_morphisms,
    compose_splitting,
    is_back_translatable,
    is_monomorphic,
    substitute_back,
    translate,
)
from .ontology import (
    Ontology,
    check_ecsy_morphism,
    connect,
    connection_axiom_rounds,
    merge_presentations,
    validate_ontology,
)
from .syntax import (
    Formula,
    Signature,
    Symbol,
    apply_symbol,
    count_formulas,
    enumerate_formulas,
    formula_in_language,
    make_signature,
    parse_formula,
    signature_leq,
    signature_union,
    substitute,
    svar,
)

__version__ = "0.1.0"
