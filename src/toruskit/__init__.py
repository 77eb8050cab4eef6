"""toruskit: constructive linear algebra for generic compact complex tori.

Period matrices and complex structures (torus), Hodge decomposition and
genericity certificates (hodge), the isotropic Grassmannian with two-point
section interpolation (twistor), hop chains through shared flat metrics
(moduli), and constant-coefficient flat-bundle deformation theory (bundles),
with a JSON CLI on top.
"""

from .errors import (BackendRequired, ChainNotFound, DegenerateLattice, Diverged,
                     DimensionTooSmall, FactorizationFailed, IllConditioned,
                     IndexOrder, NotCompatible, NotPaired, NotSkew, NotTransversal,
                     Obstructed, ToruskitError)
from .torus import (ComplexStructure, IsotropicFrame, MarkedTorus, Metric,
                    frame_from_structure, identity_metric, make_torus,
                    random_structure, random_torus, standard_structure,
                    structure_from_frame, torus_from_structure)
from .hodge import (GenericityReport, MultiVector, hodge_type, integral_pp_kernel,
                    is_generic, pp_class_heuristic, pq_decompose, subtorus_search)
from .twistor import (FiberValue, SectionVector, TwistorPoint, b_minus_curvature,
                      conjugate_point, horizontal_section, kappa, psi_transport,
                      section_solve, transversal, twistor_point)
from .moduli import (Chain, ChainReport, ConnectOptions, Pairing, common_metric,
                     common_structure_from_metrics, connect, pair_factorize,
                     paired_eigenvalues, verify_chain)
from .bundles import (Character, ExtClass, GradedFlatBundle, MasseyResult,
                      dbar_square_residual, ext_dimension, flat_connection_check,
                      gauge_scale, massey_solve, mc_obstruction, obstruction_norm,
                      twistor_extend)
from .fourier import FourierForm, FourierFormSpace

__version__ = "0.1.0"

__all__ = [
    # errors
    "BackendRequired", "ChainNotFound", "DegenerateLattice", "Diverged",
    "DimensionTooSmall", "FactorizationFailed", "IllConditioned", "IndexOrder",
    "NotCompatible", "NotPaired", "NotSkew", "NotTransversal", "Obstructed",
    "ToruskitError",
    # torus
    "ComplexStructure", "IsotropicFrame", "MarkedTorus", "Metric",
    "frame_from_structure", "identity_metric", "make_torus", "random_structure",
    "random_torus", "standard_structure", "structure_from_frame",
    "torus_from_structure",
    # hodge
    "GenericityReport", "MultiVector", "hodge_type", "integral_pp_kernel",
    "is_generic", "pp_class_heuristic", "pq_decompose", "subtorus_search",
    # twistor
    "FiberValue", "SectionVector", "TwistorPoint", "b_minus_curvature",
    "conjugate_point", "horizontal_section", "kappa", "psi_transport",
    "section_solve", "transversal", "twistor_point",
    # moduli
    "Chain", "ChainReport", "ConnectOptions", "Pairing", "common_metric",
    "common_structure_from_metrics", "connect", "pair_factorize",
    "paired_eigenvalues", "verify_chain",
    # bundles
    "Character", "ExtClass", "GradedFlatBundle", "MasseyResult",
    "dbar_square_residual", "ext_dimension", "flat_connection_check",
    "gauge_scale", "massey_solve", "mc_obstruction", "obstruction_norm",
    "twistor_extend",
    # fourier
    "FourierForm", "FourierFormSpace",
]
