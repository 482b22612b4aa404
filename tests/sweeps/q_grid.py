"""The two q-analogue routes on all 126 admissible (p, r, twist) with
p <= 43, r in {1, -1, -3, -7, -9, -13} and twist in {-40, -7, -1, 0, 1, 2, 3}.

Both routes must agree and find a zero exactly at twist 0, so every
nonzero twist breaks the sum (~5 s).  Prints one summary line; exits 1
on a wrong instance or a changed count.  The grid cannot tell route 2's
point q = 2^64 (1 + eps) from a narrower one such as q = 2 (1 + eps): the
image tests in tests/test_qring.py pin X = 2^64.

    PYTHONPATH=src python tests/sweeps/q_grid.py
"""

import sys

from sclab.claims import admissible
from sclab.qring import verify_q_conjecture
from sclab.rationals import primes_in


def main() -> int:
    grid = [
        (p, r, t)
        for p in primes_in(2, 43)
        for r in (1, -1, -3, -7, -9, -13) if admissible("thm1", p, r)
        for t in (-40, -7, -1, 0, 1, 2, 3)
    ]
    bad = []
    for p, r, t in grid:
        rep = verify_q_conjecture(p, r, t)
        if not rep.ring_zero == rep.division_zero == (t == 0):
            bad.append((p, r, t, rep.ring_zero, rep.division_zero))
    print(f"{len(grid)} instances, {len(bad)} wrong: {bad}")
    return int(len(grid) != 126 or bool(bad))


if __name__ == "__main__":
    sys.exit(main())
