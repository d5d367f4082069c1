"""Rewriting on monoid and category presentations: word problems via
convergent systems, critical-branching analysis, completion, coherence, and
the low-dimensional free resolution extracted from a coherent presentation.
"""

from .presentation import (
    Budget,
    CompositionError,
    FuelExhausted,
    Generator,
    NotCertified,
    Polygraph,
    PresentationError,
    PumpedRule,
    RewriteStep,
    Rule,
    ThreeCell,
    Word,
    ZigZag,
    identity_word,
    parse_path,
    parse_polygraph,
    serialize_polygraph,
    validate,
)
from .rewrite import (
    DEFAULT_FUEL,
    DEFAULT_PUMP_BOUND,
    EQUAL,
    GREATER,
    LESS,
    InterpretationCert,
    certify_convergent,
    check_deglex_termination,
    check_interpretation_certificate,
    deglex_compare,
    find_redexes,
    normal_form,
    normalize,
    orient,
    parse_certificate,
    termination_evidence,
    word_eq,
)
from .branchings import (
    CriticalBranching,
    LocalBranching,
    NotConfluent,
    Resolution,
    classify_local_branching,
    decide_confluence,
    enumerate_critical_branchings,
    make_local_branching,
    resolve_branching,
)
from .completion import (
    CompletionResult,
    ReductionResult,
    is_reduced,
    knuth_bendix,
    metivier_squier_reduce,
)
from .coherence import (
    CoherentPresentation,
    MultiplicationTable,
    TwoFunctor,
    boundary3,
    check_two_functor,
    fill_positive,
    fill_sphere,
    generating_cells,
    parse_multiplication_table,
    parse_transfer_maps,
    sigma_path,
    squier_completion,
    standard_coherent_presentation,
    transfer_homotopy_basis,
    validate_table,
)
from .homology import (
    FreeResolution,
    format_ring,
    symbolic_matrices,
    try_enumerate,
    verify_identities,
    write_matrices,
)

__version__ = "0.1.0"
