"""Exact cooperative-game cores, an epistemic sequent calculus for payoff
acceptance, and replica-economy knowledge growth."""

from .errors import EpicoreError, InvalidInputError, UnsupportedSizeError, VerificationFailure
from .games import (
    Coalition,
    PayoffVector,
    TUGame,
    all_coalitions,
    blocking_witness,
    core_membership,
    dominates,
    enumerate_integer_core,
)
from .logic import (
    ProofTree,
    Rule,
    ThoughtSequent,
    check_proof,
)
from .acceptability import (
    KnowledgeProfile,
    Verdict,
    decide,
    emit_proof,
    gamma,
    knowledge_set,
)
from .analysis import (
    bondareva_shapley_nonempty,
    characterizes_core,
    irrelevance_invariance,
    minimal_balanced_families,
    prop51_check,
)
from .replica import (
    Allocation,
    EdgeworthEconomy,
    ReplicaEconomy,
    econ_dominates,
    effective_coalitions,
    grid_core,
    knowledge_growth,
    partial_knowledge_witness,
    utility_compare,
)

__version__ = "0.1.0"
