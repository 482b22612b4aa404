"""sclab: exact-arithmetic verification of truncated hypergeometric
supercongruences, prime by prime."""

from .claims import (
    CongruenceReport,
    FAMILIES,
    InadmissibleInstanceError,
    ProofChain,
    UnsupportedInstanceError,
    admissible,
    lhs_residue,
    lhs_value,
    proof_chain_thm1,
    proof_chain_thm2,
    rhs_residue,
    scan,
    verify,
)
from .cyclotomic import CycElement, root_power_sum_check
from .hyperkernel import (
    SeriesSpec,
    check_d1,
    check_karlsson_minton,
    check_whipple,
    conjugate_product_congruence,
    eval_truncated,
    eval_truncated_residue,
)
from .padic import PadicContext, Residue, congruent, vp
from .pgamma import ap, gamma_p, pochhammer_residue_via_gamma
from .qring import QRing, q_integer, q_pochhammer, verify_q_conjecture
from .rationals import pochhammer, primes_in

__version__ = "0.1.0"

__all__ = [
    "CongruenceReport",
    "CycElement",
    "FAMILIES",
    "InadmissibleInstanceError",
    "PadicContext",
    "ProofChain",
    "QRing",
    "Residue",
    "SeriesSpec",
    "UnsupportedInstanceError",
    "admissible",
    "ap",
    "check_d1",
    "check_karlsson_minton",
    "check_whipple",
    "congruent",
    "conjugate_product_congruence",
    "eval_truncated",
    "eval_truncated_residue",
    "gamma_p",
    "lhs_residue",
    "lhs_value",
    "pochhammer",
    "pochhammer_residue_via_gamma",
    "primes_in",
    "proof_chain_thm1",
    "proof_chain_thm2",
    "q_integer",
    "q_pochhammer",
    "rhs_residue",
    "root_power_sum_check",
    "scan",
    "verify",
    "verify_q_conjecture",
    "vp",
]
