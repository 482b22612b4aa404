"""The left side cut at n0 against the sum of all p terms, for every family
at its default r set and every admissible p <= 2000 (~4 s).

A family's left side is sum_{k<p} (m*k + c) (a)_k^e / k!^e.  With n0 the
first k at which a + k is divisible by p, every term past n0 holds p^e,
so the first n0 + 1 terms give the full sum mod p^e.  For each instance
the sweep takes n0 from a's numerator and denominator, sums the first
n0 + 1 terms and all p terms mod p^e, and reads `lhs_residue` at p^e; the
three must agree.  One line per instance goes to stdout (claim, p, r, n0,
the residue), so the registry's digest pins them.  Exits 1, with the
counts on stderr, on a mismatch or a changed count.

    PYTHONPATH=src python tests/sweeps/cut.py
"""

import sys

from sclab.claims import FAMILIES, _plan, admissible, lhs_residue
from sclab.hyperkernel import _residue
from sclab.padic import PadicContext
from sclab.rationals import primes_in

EXPECTED = 3535  # admissible (claim, p, r), 5 <= p <= 2000


def main() -> int:
    seen, bad = 0, []
    for fam in FAMILIES.values():
        for r in fam.default_r_values:
            a, e, _, _ = fam.series(r)
            plan = _plan(fam, r)[0]
            for p in primes_in(5, 2000):
                if not admissible(fam.id, p, r):
                    continue
                n0 = -a.numerator * pow(a.denominator, -1, p) % p
                modulus = p ** e
                full = _residue(plan, p, p, modulus)
                cut = _residue(plan, n0 + 1, p, modulus)
                via = lhs_residue(fam.id, p, r, PadicContext(p, e)).value
                print(fam.id, p, r, n0, full)
                seen += 1
                if not full == cut == via:
                    bad.append((fam.id, p, r))
    if seen != EXPECTED or bad:
        print(f"{seen} instances; {len(bad)} wrong: {bad[:5]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
