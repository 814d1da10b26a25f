"""rmckit: regular model checking of linear temporal properties.

Automata and transducer algebra over indexed alphabets, (omega-)regular
systems, augmented-system constructions for global and local-oriented
temporal properties, and emptiness semi-algorithms based on loop detection
(a nested fixpoint over sets of words, in finite and omega mode alike) and
symbolic simulation fixpoints.
"""

from .alphabet import Alphabet
from .automata import (
    FiniteAutomaton,
    accepts,
    complement,
    determinize,
    difference,
    enumerate_words,
    equivalent,
    includes,
    intersect,
    is_empty,
    minimize,
    pick_word,
    union,
    universal,
    word_automaton,
)
from .errors import (
    AlphabetCapExceeded,
    AlphabetMismatch,
    IncompleteCopAutomaton,
    IncompleteLepAutomaton,
    InconsistentComplement,
    InputError,
    MissingComplement,
    ModeMismatch,
    NonWeakResult,
    NotDeterministic,
    NotWeak,
    NotWeakDeterministic,
    ParseError,
    RmckitError,
)
from .fileformat import LoadedSystem, load_system, parse_aut, serialize_aut
from .gsp import (
    CopSet,
    GspAugmentation,
    NegatedGsp,
    StateProperty,
    build_augmented_finite,
    build_augmented_omega,
    check_emptiness_loop,
    cop_alphabet,
    cop_of,
    negate_gsp,
    negated_gsp,
    replay_gsp_witness,
    state_property,
)
from .losp import (
    LocalExecutionProperty,
    Losp,
    LospAugmentation,
    build_augmented_losp,
    check_losp,
    combine_verdicts,
    complement_lep,
    extend_with_flags,
    lep_alphabet,
    local_execution_property,
    losp_property,
    replay_losp_witness,
)
from .omega import (
    OmegaAutomaton,
    UltimatelyPeriodicWord,
    accepts_up_word,
    buchi_is_empty,
    classify,
    complement_weak_dba,
    determinize_weak,
    minimize_weak_dba,
    omega_intersect,
    sample_lassos,
)
from .simulation import (
    SimCandidate,
    SimRelation,
    brute_force_simulation,
    check_emptiness_sim,
    sim_fixpoint,
    sim_init,
    sim_step,
    validate_candidate,
)
from .system import (
    HOLDS,
    UNKNOWN,
    VIOLATED,
    BuchiRegularSystem,
    LassoWitness,
    LocalityEvidence,
    RegularSystem,
    Verdict,
    check_reachability_property,
    each_slice,
    locality_evidence,
    reachable,
    replay_lasso,
    replay_path,
    slice_system,
    validate,
    verify_parametric,
)
from .transducer import (
    ClosureResult,
    Transducer,
    accepts_pair,
    closure,
    compose,
    identity,
    image,
    pair_word,
    preimage,
    relation_includes,
    union_t,
)

__version__ = "0.1.0"
