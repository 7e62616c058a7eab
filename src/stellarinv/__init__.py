"""LU and SLOCC entanglement invariants of symmetric multiqubit states,
computed through the stellar (Majorana) representation and cross-checked
against a dense brute-force oracle.

Importing the package loads none of its modules: a public name's module
loads the first time any of its names is read (PEP 562), so a command-line
call pays only for the layers it runs.  The load goes through the import
statement's own path, so ``python -X importtime`` lists each lazy load.
"""

import sys
import types

__version__ = "0.1.0"

#: The public names of each module.
_MODULES = {
    "lu": (
        "LuInvariantSet",
        "bloch_radius2",
        "concurrence2",
        "gram",
        "lu_invariants3",
        "slui_coefficients",
        "symmetric_coefficients",
    ),
    "oracle": (
        "dicke_expand",
        "oracle_lu_invariants3",
        "partial_trace",
        "three_tangle",
        "time_reversal_dense",
        "wootters_concurrence",
        "y_theta",
    ),
    "roots": ("cluster", "degeneracy_class", "find_roots"),
    "slocc": (
        "SloccInvariantSet",
        "anharmonic_orbit",
        "canonical_representative",
        "cross_ratio",
        "i2_closed_n4",
        "klein_j",
        "lambda_vector",
        "slocc_summary",
        "symmetrized_ik",
    ),
    "states": (
        "DegenerateInputError",
        "DivergentSumError",
        "MajoranaPolynomial",
        "RiemannPoint",
        "SphereVector",
        "SymmetricState",
        "chordal_distance",
        "dicke_state",
        "from_dicke",
        "from_sphere",
        "ghz4_family",
        "ghz_state",
        "majorana_polynomial",
        "state_from_polynomial",
        "state_from_roots",
        "to_sphere",
        "w_state",
    ),
    "transforms": (
        "IloParameters",
        "MobiusTransform",
        "apply_mobius",
        "apply_operator",
        "ilo_operator",
        "lu_unitary",
        "mobius_from_ilo",
        "rotation_from_h",
        "time_reversal",
    ),
}

_SOURCE = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_SOURCE)


class _Package(types.ModuleType):
    """The package binds a module's public names here as soon as that module
    has loaded: the import system sets every loaded submodule as an attribute
    of its package.  So a name holds the object its module defined, however
    the module's own binding has been replaced since (as a tracer does)."""

    def __setattr__(self, attr, value):
        super().__setattr__(attr, value)
        if attr in _MODULES:
            for name in _MODULES[attr]:
                super().__setattr__(name, getattr(value, name))


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{_SOURCE[name]}")  # binds the name
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | _SOURCE.keys())
