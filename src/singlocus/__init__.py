"""Exact invariants of normal-crossings boundary geometry.

The package computes, in exact rational arithmetic, the discrete data
carried by a decorated trivalent ribbon graph: defects and holonomies of
gluing diagrams, the dual pants surface, the first homology of the
associated graph manifold, and the nodal-curve combinatorics of a
transverse pencil.  Fans of smooth toric 3-folds are supported as a
source of such graphs.
"""

import importlib.util
import sys

# Every submodule but the command line, with the names the package exports
# from it.  Each is registered lazily: ``singlocus.<module>`` and
# ``sys.modules`` hold it at once, and its code runs when one of its
# attributes is first read, so a process runs only the modules it uses.
# A sibling's ``from . import x`` finds x bound here and leaves it lazy;
# ``from .x import name`` runs it.
_EXPORTS = {
    "categories": "FiniteCategory build_i build_j",
    "descent": "DescentDiagram PicInvariants assemble_diagram diagrams_equivalent gauge pic_invariants",
    "errors": (
        "BoundaryWall DisconnectedGraph GraphMismatch InvalidFan InvalidGraph InvalidValue"
        " NegativeDefect NonOrientable NotAWall SingLocusError SplitStar"
        " TriangleConstraintViolated"
    ),
    "examples": "quartic_mirror_fan",
    "graphs": "CompactEdge DecoratedGraph DualSurface Leg dual_surface orientability validate_graph",
    "intlinalg": "cokernel_abelian_group",
    "localmodels": (
        "EdgeAut Monomial PantsPresentation TwoPerE TwoPerV VertexAut act_on_two_per_e"
        " act_on_two_per_v compose_edge_aut compose_vertex_aut pants_rescale_to_puncture"
        " stabilizer_check_e stabilizer_check_v"
    ),
    "serialize": "",
    "topology": (
        "H1Result NodalCurveReport dehn_twist_record h1_graph_manifold pencil_localization"
        " plumbing_presentation"
    ),
    "toric": "Fan WallReport boundary_graph divisor_classification validate_fan wall_data walls",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def _register(module: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _EXPORTS:
    _register(_module)
del _module


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(globals()[_MODULE_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.2.0"
