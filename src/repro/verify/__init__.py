"""Certified feasibility verdicts and the differential verification harness.

The layer every experiment certifies against: feasibility answers from the
flow core come with witnesses (:mod:`certificates <repro.verify.certificates>`),
witnesses are re-checked by solver-independent exact arithmetic
(:mod:`checkers <repro.verify.checkers>`), and the available kernels are
cross-examined on the same probes
(:mod:`differential <repro.verify.differential>`).  Entry points:

* :func:`certify` — feasibility verdict at ``m`` with an attached witness,
* :func:`certified_optimum` — the optimum sandwiched by certificates,
* :func:`differential_optimum` / :func:`differential_sweep` — every
  available kernel on the same instances, arbitrated by certificates.
"""

from .certificates import (
    Certificate,
    CertifiedOptimum,
    FeasibleCertificate,
    InfeasibleCertificate,
    certificate_from_dict,
    mandatory_work,
)
from .certify import Unsatisfiable, certified_optimum, certify, unsat_certificate
from .checkers import (
    CertificationError,
    CheckResult,
    check_certificate,
    check_feasible_certificate,
    check_infeasible_certificate,
)
from .differential import (
    DifferentialRecord,
    DifferentialReport,
    differential_check,
    differential_optimum,
    differential_sweep,
)

__all__ = [
    "Certificate",
    "CertifiedOptimum",
    "FeasibleCertificate",
    "InfeasibleCertificate",
    "certificate_from_dict",
    "mandatory_work",
    "Unsatisfiable",
    "certify",
    "certified_optimum",
    "unsat_certificate",
    "CertificationError",
    "CheckResult",
    "check_certificate",
    "check_feasible_certificate",
    "check_infeasible_certificate",
    "DifferentialRecord",
    "DifferentialReport",
    "differential_check",
    "differential_optimum",
    "differential_sweep",
]
