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

from .certify import Certificate, replay_certificate
from .domains import build_domain
from .errors import JetlabError
from .functions import AnalyticJet, get_function
from .glue import GlobalField, global_extend
from .grid import SampledJet
from .hestenes import (
    HalfSpaceExtension,
    extend_half_space_lattice,
    interface_mismatch,
    solve_coefficients,
)
from .spaces import (
    check_membership_e,
    check_membership_f,
    h_norm_upper_bound,
    norm_report,
)

__all__ = [
    "__version__",
    "AnalyticJet",
    "Certificate",
    "GlobalField",
    "HalfSpaceExtension",
    "JetlabError",
    "SampledJet",
    "build_domain",
    "check_membership_e",
    "check_membership_f",
    "extend_half_space_lattice",
    "get_function",
    "global_extend",
    "h_norm_upper_bound",
    "interface_mismatch",
    "norm_report",
    "replay_certificate",
    "solve_coefficients",
]
