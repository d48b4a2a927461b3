"""Exact closed-walk enumeration on graph products and restricted integer
lattices, with the matching spectral distributions and product densities.

The package splits into four layers:

- :mod:`latticewalks.graphs`: graphs on integer coordinate tuples, step
  lattices (steps cut by walls), Kronecker and Cartesian products, balls,
  and checked coordinate-change isomorphisms.
- :mod:`latticewalks.walks`: exact big-integer closed-walk counts and the
  named lattice registry with closed forms and folds onto Kronecker
  products.  A walk table is a moment sequence, a law of
  :mod:`latticewalks.spectral`.
- :mod:`latticewalks.spectral`: moment sequences, arcsine and semicircle
  laws, classical and Mellin convolutions, which are the Cartesian and
  Kronecker product rules for walk tables too, and finite path spectra.
- :mod:`latticewalks.elliptic`: complete elliptic integrals via the
  arithmetic-geometric mean, product density kernels on [-4, 4], and
  adaptive quadrature for their moments.
"""

from .elliptic import (
    EllipticPair,
    adaptive_quadrature,
    arcsine_density,
    density,
    density_moment,
    elliptic_KE,
    mellin_density_convolve,
    semicircle_density,
)
from .errors import NumericalError, ResourceLimitError
from .graphs import (
    FiniteGraph,
    ImplicitGraph,
    IsoMap,
    IsoReport,
    ball,
    cartesian,
    connected_components,
    degree_histogram,
    half_line,
    integer_line,
    kronecker,
    lattice,
    path_graph,
    verify_isomorphism,
)
from .spectral import (
    ArcSine,
    ClassicalConv,
    Discrete,
    MellinConv,
    NamedDensity,
    PathSpectrum,
    Semicircle,
    catalan,
    central_binomial,
    moment_law,
    path_closed_walks,
    path_spectrum,
)
from .walks import (
    LatticeKind,
    WalkTable,
    build_lattice,
    closed_form_walks,
    fold_map,
    lattice_kind,
    lattice_walk_kinds,
    walk_table,
)

__version__ = "0.1.0"

__all__ = [
    "ArcSine",
    "ClassicalConv",
    "Discrete",
    "EllipticPair",
    "FiniteGraph",
    "ImplicitGraph",
    "IsoMap",
    "IsoReport",
    "LatticeKind",
    "MellinConv",
    "NamedDensity",
    "NumericalError",
    "PathSpectrum",
    "ResourceLimitError",
    "Semicircle",
    "WalkTable",
    "adaptive_quadrature",
    "arcsine_density",
    "ball",
    "build_lattice",
    "cartesian",
    "catalan",
    "central_binomial",
    "closed_form_walks",
    "connected_components",
    "degree_histogram",
    "density",
    "density_moment",
    "elliptic_KE",
    "fold_map",
    "half_line",
    "integer_line",
    "kronecker",
    "lattice",
    "lattice_kind",
    "lattice_walk_kinds",
    "mellin_density_convolve",
    "moment_law",
    "path_closed_walks",
    "path_graph",
    "path_spectrum",
    "semicircle_density",
    "verify_isomorphism",
    "walk_table",
]
