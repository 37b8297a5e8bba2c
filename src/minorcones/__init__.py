"""Bounded ratios of products of principal minors of PD matrices: exact
cone membership with certificates, extreme-ray enumeration, asymptotic
nullity types, and floating-point verification probes.
"""

from .cones import (ConstraintSystem, KoteljanskiiCertificate,
                    MembershipCertificate, NonPointedConeError, Orbit, Ray,
                    build_D_system, build_E_system, extreme_rays,
                    koteljanskii_cone_membership, membership, orbit_decompose)
from .nullity import (NullityType, Partition, RankType, dual_nullity_type,
                      h_equivalent, nullity_type, partition_nullity,
                      rank_type, subset_matrix, superset_matrix)
from .polyarith import AsnVector, PolyMatrix, asn, asn_inner_product, gram
from .probe import (ProbeReport, SamplerConfig, bound_search,
                    decomposition_check, eval_family_slope,
                    eval_poly_family_slope, fiedler_check)
from .ratios import (FormalLog, RatioSpec, apply_complement,
                     apply_permutation, delete_index, evaluate_log_ratio,
                     formal_log, is_homogeneous, is_koteljanskii_ray,
                     koteljanskii_log, log_of, parse_ratio)

__version__ = "0.1.0"
