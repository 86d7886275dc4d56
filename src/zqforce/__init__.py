"""Zero forcing numbers and their q-analogue.

Exact values via an adversarial game solver on small graphs, polynomial
solvers for block graphs and cactus graphs, Z_0 as a fold over blocks,
closed forms for generalized stars and windmills, and machine-checkable
certificates tying it together.
"""

from .certificates import (
    AnnounceMove,
    Certificate,
    CheckResult,
    ForceMove,
    RevealMove,
    TokenMove,
    certificate_from_tokens,
    check_certificate,
    format_certificate,
    parse_certificate,
    verify_certificate,
)
from .closed_forms import star_Zq, windmill_I_Zq, windmill_II_Zq
from .errors import (
    EdgeListParseError,
    GraphValidationError,
    OracleProtocolError,
    ResourceLimitError,
    ScopeError,
    VerificationMismatch,
    ZqError,
)
from .forcing import brute_force_Z, closure_with_forces
from .game import (
    MODE_CLOSURE,
    MODE_SINGLE_FORCE,
    GameConfig,
    GameSolution,
    adversarial_oracle,
    extract_player_trace,
    mask_to_vertices,
    solve_zq,
    vertices_to_mask,
)
from .generators import FAMILY_KINDS, FamilyParams, generate_family
from .graphs import (
    Block,
    Graph,
    connected_components,
    find_blocks,
    format_edge_list,
    is_block_graph,
    is_cactus,
    is_connected,
    parse_edge_list,
    unfilled_components,
)
from .structured import block_graph_Z, block_Z0, cactus_Z0

__version__ = "0.1.0"
