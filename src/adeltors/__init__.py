"""adeltors: exact adelic and torsion reconstruction over finite Balmer posets.

The package realizes localization, torsion and completion functors on
two exact coefficient backends (the integers with a finite truncated
fan, and a rank-two valuation ring with its three-prime chain), builds
the punctured cube of adelic rings, rewrites it by iterated cofibres
into a torsion-model diagram, and certifies the reconstruction theorems
as homology-isomorphism checks.
"""

from .classes import GradedClasses, ModuleClass
from .complexes import (ChainComplex, ChainMap, cone, fib, compose,
                        DegreeWindowError, IncompatibleWorldsError,
                        NotChainMapError, ShapeError)
from .homology import UnsupportedMixedShape, decompose_single, homology, is_acyclic
from .linalg import snf
from .localize import (HypothesisFailed, Site,
                       TruncationTooSmall, UnsupportedRegionError)
from .adelic import AdelicCube, is_adelic_object, reconstruct_limit
from .posets import (AssemblyData, BalmerPoset, SpecClosedSet, chain_poset,
                     coarsest, dim_filtration, down_closure, finest,
                     preimage_family, torus_poset, up_cone, validate_assembly,
                     validate_poset, valrank2_poset, zint_poset)
from .ratfunc import RatXY, parse_ratxy
from .shapes import (CubeDiagram, IndexCategory, Vertex, big_L, big_R,
                     build_ifull, build_igeq, build_iminus, cof_direction,
                     face, fib_direction, full_cube, holim_punctured,
                     iminus_count, is_cofibre_layer, punctured_cube, to_dot)
from .torsion import (chromatic_report, cousin_report, one_tors_vertex,
                      reconstruct, tors, validate)
from .worlds import (VAL, World, Z_INT, Z_INV, Z_LOC, Z_PADIC, Z_PADICRAT,
                     Z_RAT, Z_SEMILOC, PRIME_FIELD, world_from_name)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
