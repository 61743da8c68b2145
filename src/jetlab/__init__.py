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

import importlib

__version__ = "0.1.0"
# the ceiling of a divergence certificate whose config names none, and the
# default of certify cantorslit --ceiling
DEFAULT_CEILING = 1e3

# public name -> the module that defines it, imported on first use (PEP
# 562), so that a command imports only the modules it runs
_EXPORTS = {
    "AnalyticJet": "functions",
    "Certificate": "certify",
    "GlobalField": "glue",
    "HalfSpaceExtension": "hestenes",
    "JetlabError": "errors",
    "SampledJet": "grid",
    "build_domain": "domains",
    "check_membership_e": "spaces",
    "check_membership_f": "spaces",
    "extend_half_space_lattice": "hestenes",
    "get_function": "functions",
    "global_extend": "glue",
    "h_norm_upper_bound": "spaces",
    "interface_mismatch": "hestenes",
    "norm_report": "spaces",
    "replay_certificate": "certify",
    "solve_coefficients": "hestenes",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
