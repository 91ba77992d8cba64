"""Groupoid-weighted hypercube skeletons for n-constituent mixtures.

Builds oriented n-cube skeletons whose edges carry invertible 3x3 matrix
arrows of per-constituent material groupoids, composes them along each
coordinate axis, decides conservativity (all circuit weights equal the
identity, equivalently all 2-faces commute), and reports mixture
uniformity via the core groupoid of arrows common to every constituent.
"""

from .analysis import (
    ConservativityReport,
    CoreArrowSet,
    UniformityReport,
    circuit_steps,
    conservative_oracle,
    core_arrows,
    is_conservative,
    is_uniform,
    path_weight,
    perturb_edge,
    random_composable_chain,
    random_conservative,
    random_interchange_quadruple,
    skeleton_from_potential,
    theorem_sweep,
)
from .errors import (
    CompositionError,
    ConstructionHalted,
    FormatError,
    GroupValidationError,
    NGroupoidError,
    PathError,
    UnknownBasePointError,
)
from .groupoid import ConstituentGroupoid, SymmetryGroup
from .hypercube import Edge, Face, HypercubeSkeleton, count_faces
from .matrices import DEFAULT_TOL, DET_THRESHOLD, identity_deviation, rel_distance
from .mixture import MixtureSpec, load_mixture, mixture_from_dict
from .skeleton import (
    ObjectiveSkeleton,
    assemble_from_facets,
    build,
    compose,
    dump_skeleton,
    interchange_check,
    inverse_axis,
    load_skeleton,
    save_skeleton,
    skeleton_from_dict,
    skeleton_to_dict,
    source_facet,
    target_facet,
    unit_skeleton,
)

__version__ = "0.1.0"
