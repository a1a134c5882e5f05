"""Transforming imperfect-recall games into A-loss-recall games, and
solving one-player games exactly."""

from .model import (
    MAX,
    MIN,
    ChanceNode,
    Game,
    GameError,
    GameStructure,
    InformationSet,
    Leaf,
    PlayerNode,
    RecallClass,
    classify_recall,
    history,
    validate,
)
from .seqsets import SequenceSet, extract_histories, is_alr_set
from .shuffle import SalrResult, salr_witness, shuffle_structure
from .span import (
    SpanCertificate,
    canonical_full_span,
    minimal_span,
    shuffle_depth,
    structure_from_sequences,
    verify_span,
)
from .solver import PureStrategy, SolveResult, solve, solve_alr, solve_bruteforce
from .transform import TransformedGame, compose_two_player, transfer_payoffs

__all__ = [
    "MAX",
    "MIN",
    "ChanceNode",
    "Game",
    "GameError",
    "GameStructure",
    "InformationSet",
    "Leaf",
    "PlayerNode",
    "RecallClass",
    "SalrResult",
    "SequenceSet",
    "SolveResult",
    "SpanCertificate",
    "PureStrategy",
    "TransformedGame",
    "canonical_full_span",
    "classify_recall",
    "compose_two_player",
    "extract_histories",
    "history",
    "is_alr_set",
    "minimal_span",
    "salr_witness",
    "shuffle_depth",
    "shuffle_structure",
    "solve",
    "solve_alr",
    "solve_bruteforce",
    "structure_from_sequences",
    "transfer_payoffs",
    "validate",
    "verify_span",
]
