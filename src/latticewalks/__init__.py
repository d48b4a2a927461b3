"""Exact closed-walk enumeration on graph products and restricted integer
lattices, with the matching spectral distributions and product densities.

The package splits into four layers:

- :mod:`latticewalks.graphs`: graphs on integer coordinate tuples, Kronecker
  and Cartesian products, lattice restrictions, balls, and checked
  coordinate-change isomorphisms.
- :mod:`latticewalks.walks`: exact big-integer closed-walk counts, the named
  lattice registry with closed-form counting formulas, and coincidence
  tuples ``(m, count_a, count_b)`` for pairs of rooted graphs.
- :mod:`latticewalks.spectral`: moment sequences, arcsine and semicircle
  laws, classical and Mellin convolutions, and finite path spectra.
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
    chamber3,
    connected_components,
    degree_histogram,
    diamond,
    fold_map,
    full_plane,
    half_line,
    half_plane,
    induced_subgraph,
    integer_line,
    kronecker,
    path_graph,
    quarter_plane,
    restrict_lattice,
    strip,
    verify_isomorphism,
    wedge,
)
from .spectral import (
    ArcSine,
    ClassicalConv,
    Discrete,
    MellinConv,
    NamedDensity,
    PathSpectrum,
    Semicircle,
    moment_law,
    path_spectrum,
)
from .walks import (
    LatticeKind,
    WalkTable,
    build_lattice,
    cartesian_walk_convolution,
    catalan,
    central_binomial,
    closed_form_walks,
    kronecker_walk_product,
    lattice_kind,
    lattice_walk_kinds,
    moment_coincidence_report,
    path_closed_walks,
    verify_binomial_identity,
    walk_count,
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
    "cartesian_walk_convolution",
    "catalan",
    "central_binomial",
    "chamber3",
    "closed_form_walks",
    "connected_components",
    "degree_histogram",
    "density",
    "density_moment",
    "diamond",
    "elliptic_KE",
    "fold_map",
    "full_plane",
    "half_line",
    "half_plane",
    "induced_subgraph",
    "integer_line",
    "kronecker",
    "kronecker_walk_product",
    "lattice_kind",
    "lattice_walk_kinds",
    "mellin_density_convolve",
    "moment_coincidence_report",
    "moment_law",
    "path_closed_walks",
    "path_graph",
    "path_spectrum",
    "quarter_plane",
    "restrict_lattice",
    "semicircle_density",
    "strip",
    "verify_binomial_identity",
    "verify_isomorphism",
    "walk_count",
    "walk_table",
    "wedge",
]
