"""Exact graded invariants of the Jacobian syzygy module of a reduced plane
curve, and the derived stability, freeness, and reconstructability
properties of its logarithmic tangent bundle.

All arithmetic is exact (rational); there are no runtime dependencies
outside the standard library.
"""

from .analysis import (AnalysisReport, ExpectationResult, UnknownInvariant,
                       build_report, check_expectations, table_values,
                       torelli_report)
from .curvecat import (CurveFileSyntax, CurveRecord, VerificationFailed,
                       catalog, load_curve_file, lookup, non_ts_family,
                       thom_sebastiani, verify_record)
from .exactlin import QMatrix, in_span, kernel_basis, rank, solve
from .logbundle import (BundleNumerics, FreenessVerdict, GenusCheck,
                        NegativeH2, freeness, genus_sum_check, h0_tangent,
                        h1_tangent, h2_tangent, is_stable, numerics,
                        stability_sufficient)
from .polygcd import AllZero, divides, exact_quotient, gcd_many
from .ring3 import (HPoly, Mono, ProjPoint, dim_graded, linear_change,
                    mono_basis, parse, partials)
from .singcat import (Check, DeclaredSing, NonConvenient, NotNodal,
                      SingType, SmoothCurve, VerificationReport, alpha_curve,
                      arnold_exponent, kouchnirenko_mu, local_numbers,
                      verify_declared)
from .syzygy import (NotReduced, RelationViolated, SyzygyTriple, ar_basis,
                     ar_dim, ct, defect, er_dim, gradient_matrix, h0m_dim,
                     jacobian_dim, koszul_dim, mdr, milnor_dim, sat_basis,
                     saturation_dim, tau)
from .torelli import (DimensionObstruction, LinearSystem, TorelliVerdict,
                      WrongSingularityTypes, base_locus_zero_dim,
                      dimension_obstruction, linear_system_cusps,
                      linear_system_points, moduli_dim, severi_dim,
                      torelli_cuspidal, torelli_nodal, torelli_nodal_count)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
