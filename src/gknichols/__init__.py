"""Exact symbolic tools for Nichols algebras of blocks-and-points braidings.

The package computes graded truncations of Nichols algebras over abelian
groups, classifies braided vector spaces by finite or infinite
Gelfand-Kirillov dimension, and verifies the catalogued presentations
degree by degree with skew derivations.

The names in ``__all__`` are loaded lazily (PEP 562): ``import gknichols``
imports no submodule, and the first access to a name, as
``gknichols.classify`` or ``from gknichols import classify``, imports the
submodule that defines it (``gknichols.catalog`` is that submodule).  So
a program that only computes truncations never loads ``catalog``,
``flourished`` or ``weyl``.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names of each submodule, and the one name -> submodule map
_SOURCES = {
    "scalars": ("Scalar", "ScalarRing", "parse_scalar", "print_scalar"),
    "braidings": ("BraidedSpaceSpec", "DiagonalBraiding",
                  "PaleBlockPointSpec", "braid_letters", "diagonalize",
                  "ghost", "interaction", "spec_from_json", "spec_to_json"),
    "freealgebra": ("TensorElement", "braided_commutator",
                    "expression_degree", "parse_element", "print_element",
                    "skew_derivation"),
    "nichols": ("Presentation", "compute_truncation", "infinite_probe",
                "is_zero_in_nichols", "mu_sequence", "pbw_hilbert_coeffs",
                "quantum_symmetrizer_kernel", "verify_presentation",
                "z_element"),
    "weyl": ("DynkinDiagram", "cartan_coeff", "cartan_data",
             "classify_cartan", "dynkin", "match_table_pattern", "reflect"),
    "flourished": ("FiniteGK", "FlourishedGraph", "InfiniteGK", "Unknown",
                   "build_flourished", "classify", "classify_pale",
                   "is_admissible", "is_domain"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}

__all__ = [name for names in _SOURCES.values() for name in names]
__all__.append("catalog")


def __getattr__(name):
    if name == "catalog":
        return import_module(f"{__name__}.catalog")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
