"""Exact invariants of normal-crossings boundary geometry.

The package computes, in exact rational arithmetic, the discrete data
carried by a decorated trivalent ribbon graph: defects and holonomies of
gluing diagrams, the dual pants surface, the first homology of the
associated graph manifold, and the nodal-curve combinatorics of a
transverse pencil.  Fans of smooth toric 3-folds are supported as a
source of such graphs.
"""

from .descent import (
    DescentDiagram,
    PicInvariants,
    assemble_diagram,
    diagrams_equivalent,
    gauge,
    pic_invariants,
)
from .errors import (
    BoundaryWall,
    DisconnectedGraph,
    GraphMismatch,
    InvalidFan,
    InvalidGraph,
    InvalidValue,
    NegativeDefect,
    NonOrientable,
    NotAWall,
    SingLocusError,
    SplitStar,
    TriangleConstraintViolated,
    TwistMismatch,
)
from .graphs import (
    CompactEdge,
    DecoratedGraph,
    DualSurface,
    FiniteCategory,
    Leg,
    build_i,
    build_j,
    dual_surface,
    orientability,
    validate_graph,
)
from .intlinalg import cokernel_abelian_group
from .localmodels import (
    EdgeAut,
    Monomial,
    PantsPresentation,
    TwoPerE,
    TwoPerV,
    VertexAut,
    act_on_two_per_e,
    act_on_two_per_v,
    compose_edge_aut,
    compose_vertex_aut,
    pants_rescale_to_puncture,
    stabilizer_check_e,
    stabilizer_check_v,
)
from .toric import (
    Fan,
    WallReport,
    boundary_graph,
    divisor_classification,
    quartic_mirror_fan,
    validate_fan,
    wall_data,
    walls,
)
from .topology import (
    H1Result,
    NodalCurveReport,
    dehn_twist_record,
    h1_graph_manifold,
    pencil_localization,
    plumbing_presentation,
)

__version__ = "0.2.0"
