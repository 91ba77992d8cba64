"""Groupoid-weighted hypercube skeletons for n-constituent mixtures.

Builds oriented n-cube skeletons whose edges carry invertible 3x3 matrix
arrows of per-constituent material groupoids, composes them along each
coordinate axis, decides conservativity (all circuit weights equal the
identity, equivalently all 2-faces commute), and reports mixture
uniformity via the core groupoid of arrows common to every constituent.

Importing the package loads none of its modules: each public name, and
each submodule named below, loads its module on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "analysis": (
        "ConservativityReport", "CoreArrowSet", "UniformityReport", "circuit_steps",
        "conservative_oracle", "core_arrows", "is_conservative", "is_uniform",
        "path_weight", "perturb_edge", "random_composable_chain", "random_conservative",
        "random_interchange_quadruple", "skeleton_from_potential", "theorem_sweep",
    ),
    "errors": (
        "CompositionError", "ConstructionHalted", "FormatError", "GroupValidationError",
        "NGroupoidError", "PathError", "UnknownBasePointError",
    ),
    "groupoid": ("ConstituentGroupoid", "SymmetryGroup"),
    "hypercube": ("Edge", "Face", "HypercubeSkeleton", "count_faces"),
    "matrices": ("DEFAULT_TOL", "DET_THRESHOLD", "identity_deviation", "rel_distance"),
    "mixture": ("MixtureSpec", "load_mixture", "mixture_from_dict"),
    "skeleton": (
        "ObjectiveSkeleton", "build", "compose", "dump_skeleton", "interchange_check",
        "inverse_axis", "load_skeleton", "save_skeleton", "skeleton_from_dict",
        "skeleton_to_dict", "source_facet", "target_facet", "unit_skeleton",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
