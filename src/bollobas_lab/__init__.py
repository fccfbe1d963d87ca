"""Computable stability of norm attainment and numerical radii on lp-type
sequence-space truncations.

The library answers three kinds of question about a norm-one operator:

* exact membership verdicts for diagonal operators and functionals, decided
  symbolically from a prefix + tail description of the multiplier sequence;
* exact or certified numerics: operator norms, numerical radii, norming and
  attaining sets, and distances to them;
* adversarial probes estimating the stability modulus eta(eps, T), tying the
  symbolic verdicts to finite truncations, plus constructive eta transfers
  across adjoints and two-block direct sums.
"""

from .errors import (BollobasLabError, DimensionMismatchError, GeometryError,
                     HeuristicRefusalError, NotMaterializableError,
                     NotNormalizedError, UnknownGalleryError)
from .gallery import GALLERY_IDS, GalleryEntry, gallery, parse_gallery_uri
from .membership import (EtaFunction, Verdict, WitnessRecipe, adjoint_eta,
                         c0_adjoint_nu_eta, diag_mixed_member,
                         diag_norm_member, diag_nu_member,
                         diag_norm_eta_floor, diag_nu_eta_floor,
                         eta_const, eta_identity, eta_linear,
                         eta_quadratic, functional_member, projection_member,
                         rank1_l1_eta)
from .norm_attainment import (NormResult, NormingSetDescriptor,
                              distance_to_norming_set, norming_set,
                              operator_norm, support_distance)
from .numerical_radius import (NuResult, NuStatesDescriptor,
                               corner_profile_constant,
                               distance_to_nu_attaining, nu_attaining_states,
                               numerical_radius)
from .operators import (Adjoint, Delift, Dense, Diagonal, DirectSum, Lift,
                        OperatorExpr, RankOne, Scale, adjoint, apply,
                        functional, identity, to_matrix)
from .probe import (CSV_HEADER, ProbeBudget, ProbeReport, ValidationReport,
                    eta_probe_norm, eta_probe_nu, validate_eta)
from .sequences import (BoundedTail, ConstantTail, SequenceSpec, ZeroTail,
                        drifting_phase_tail, geometric_tail, projection_spec,
                        ratio_to_one_tail)
from .spaces import (INF, PI_TOL, Space, StatePair, SumSpace,
                     conjugate_exponent, duality_map, lp_norm,
                     modulus_convexity, pair, state_pair, support_states)
from .sums import (CornerReport, PsumReport, SumTransferResult,
                   corner_counterexample, lift_nu_implies_norm,
                   norm_implies_lift_nu, psum_counterexample)

__version__ = "0.1.0"
