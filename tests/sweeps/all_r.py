"""Every admissible r in [-3p - 20, 40], hand-verified primes left out:
`verify` for p <= 200 and both proof chains for 3 <= p <= 100.

This runs both branches of `hyperkernel._sum`, the int one on the left
sides and the field one in the chains, on ~5 000 instances.  One line per
instance goes to stdout, so the registry's digest of it pins every
residue, witness and chain step.  Exits 1, with the counts on stderr, on
a failed instance or a changed count.

    PYTHONPATH=src python tests/sweeps/all_r.py
"""

import sys

from sclab.claims import FAMILIES, admissible, proof_chain_thm1, proof_chain_thm2, verify
from sclab.rationals import primes_in

EXPECTED = {
    "thm1": 857, "thm2": 1408, "conj1": 1408, "conj3": 724,
    "chain thm1": 217, "chain thm2": 352,
}


def instances(claim, lo, hi):
    for p in primes_in(lo, hi):
        if p not in FAMILIES[claim].hand_verified:
            yield from ((p, r) for r in range(-3 * p - 20, 41) if admissible(claim, p, r))


def main() -> int:
    seen, bad = dict.fromkeys(EXPECTED, 0), []
    for claim in ("thm1", "thm2", "conj1", "conj3"):
        for p, r in instances(claim, 2, 200):
            rep = verify(claim, p, r)
            print(claim, p, r, rep.case_label, rep.lhs_residue, rep.rhs_residue, rep.witness_valuation, rep.passed)
            seen[claim] += 1
            if not rep.passed:
                bad.append((claim, p, r))
    for claim, chain_of in (("thm1", proof_chain_thm1), ("thm2", proof_chain_thm2)):
        for p, r in instances(claim, 3, 100):
            chain = chain_of(p, r)
            steps = [(s.name, s.witness_valuation, s.passed) for s in chain.steps]
            print("chain", claim, p, r, chain.status, steps)
            seen["chain " + claim] += 1
            if chain.status != "pass":
                bad.append(("chain", claim, p, r))
    if seen != EXPECTED or bad:
        print(f"counts {seen}; {len(bad)} failed: {bad[:5]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
