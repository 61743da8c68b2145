"""Numerical laboratory for extension operators on irregular planar domains.

Three families of tools share one lattice substrate:

- reflection extensions across flat walls and their tensor corner variant
  (:mod:`jetlab.hestenes`),
- a chart/partition-of-unity pipeline that turns boundary-wise extensions
  into one global field (:mod:`jetlab.glue`),
- sup-norms, lattice membership scans, and machine-checkable certificates
  that exhibit gaps between the function spaces those norms define
  (:mod:`jetlab.spaces`, :mod:`jetlab.certify`).
"""

__version__ = "0.1.0"

from .certify import Certificate, CertTerm, build_certificate, replay_certificate
from .domains import Domain, build_domain
from .errors import JetlabError
from .functions import AnalyticJet, get_function
from .glue import GlobalField, global_extend
from .grid import GridMask, GridSpec, SampledJet
from .hestenes import (
    HalfSpaceExtension,
    HestenesCoefficients,
    corner_extension,
    extend_analytic,
    extend_half_space_lattice,
    solve_coefficients,
)
from .spaces import (
    check_membership_e,
    check_membership_f,
    h_norm_upper_bound,
    norm_e,
    norm_f,
    norm_g,
)

__all__ = [
    "__version__",
    "AnalyticJet",
    "CertTerm",
    "Certificate",
    "Domain",
    "GlobalField",
    "GridMask",
    "GridSpec",
    "HalfSpaceExtension",
    "HestenesCoefficients",
    "JetlabError",
    "SampledJet",
    "build_certificate",
    "build_domain",
    "check_membership_e",
    "check_membership_f",
    "corner_extension",
    "extend_analytic",
    "extend_half_space_lattice",
    "get_function",
    "global_extend",
    "h_norm_upper_bound",
    "norm_e",
    "norm_f",
    "norm_g",
    "replay_certificate",
    "solve_coefficients",
]
