"""Numerical laboratory for basic spectra of star-diagram quotients.

One manifold with two commuting free actions gives two quotients; this
package builds the catalog of such diagrams, the metrics that make the
quotients comparable, the reduced one-dimensional weighted spectral
problems, and the experiments that compare, transport and warp them.
"""

__version__ = "0.1.0"

from .algebra import (
    Quaternion,
    UnsupportedGroup,
    random_element,
)
from .diagrams import (
    CATALOG_IDS,
    CatalogEntry,
    IllDefined,
    NotInvariant,
    StarDiagram,
    UnknownId,
    catalog,
    catalog_entries,
    check_commute,
    group_net,
    isotropy_compare,
    isotropy_probe,
    swap,
    transport_invariant,
)
from .geometry import (
    GridMismatch,
    MetricSpec,
    NotCohomogeneityOne,
    OrbitProfile,
    UnknownDiagram,
    kaluza_klein,
    laplacian_identity_residual,
    mean_curvature,
    orbit_profile,
    orbit_space_length,
    star_orbit_volumes,
    warp,
    write_profile,
)
from .sturm import (
    DiscreteOperator,
    NonpositiveWeight,
    apply_stiffness,
    assemble,
    mass_quadrature,
)
from .eigen import (
    BasicSpectrum,
    ConvergenceFailure,
    eigenpairs,
)
from .lab import (
    CompareReport,
    WarpReport,
    compare_basic_spectra,
    extrapolated_spectrum,
    fubini_defect,
    joint_eigenfunction_check,
    warp_break,
)

__all__ = [name for name in dir() if not name.startswith("_")]
