"""Seeded op plans for the four workloads.

A plan is a list of groups; a group is the ops one ``sclab`` command would
run (one family sweep, one ladder instance, one q-instance, one proof
chain), and it runs in a fresh interpreter so the program's memo caches
start empty, as they do for a real command.  Each op carries the verdict
it must give.  The seed only picks primes from fixed bands (each band
inside one case class, so every seed does comparable work), the q-side
twist and the fuzz seed; the program receives only the generated inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from sclab.claims import FAMILIES, admissible
from sclab.rationals import primes_in

# The seed used while the benchmark and its bounds were tuned; a later
# claim should also be checked on another seed.
DEVELOPMENT_SEED = 1


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


def _verify(claim: str, p: int, r: int) -> dict:
    return {"kind": "verify", "claim": claim, "p": p, "r": r}


def _family_rs(claim: str) -> list[int]:
    fam = FAMILIES[claim]
    return sorted(set(fam.default_r_values)) if fam.takes_r else [fam.canonical_r]


def _sweep(claim: str, p_max: int, rs=None) -> dict:
    """The instances ``sclab scan --claim <claim> --pmax <p_max>`` verifies,
    over the family's default r list or ``--r-set rs``.  p = 2 for
    thm2/conj1 is listed as excluded by the scan, not verified, so it is
    left out here too."""
    ops = [
        _verify(claim, p, r)
        for p in primes_in(2, p_max)
        for r in (rs or _family_rs(claim))
        if admissible(claim, p, r) and not (claim in ("thm2", "conj1") and p == 2)
    ]
    r_set = f" --r-set {','.join(map(str, rs))}" if rs else ""
    return {"name": f"scan {claim} --pmax {p_max}{r_set}", "ops": ops}


def _pick(rng: random.Random, claim: str, lo: int, hi: int, keep=lambda p, r: True) -> dict:
    """One cold instance: a seeded admissible (p, r) with lo <= p <= hi."""
    candidates = [
        (p, r)
        for p in primes_in(lo, hi)
        for r in _family_rs(claim)
        if admissible(claim, p, r) and keep(p, r)
    ]
    p, r = rng.choice(candidates)
    return {"name": f"{claim} p={p} r={r}", "ops": [_verify(claim, p, r)]}


def gamma_sweep(seed: int) -> list[dict]:
    rng = _rng("gamma-sweep", seed, "ladder")
    return [
        _sweep("lr3", 97),
        _sweep("d2", 23),
        _sweep("a1", 47),
        _sweep("thm2", 47),
        _sweep("conj1", 23),
        _sweep("conj3", 23),
        # Gamma ladder.  The representative of a Gamma argument, and so the
        # work, is fixed by p and the working exponent k - v; at p = 29 the
        # seed only picks among the admissible weights r.  p = 31 would be
        # ~40 % more Gamma work, so it is not in the band.  Likewise lr3 at
        # p = 181 is ~20 % cheaper than at 193 and 197, so the band starts
        # at 193.
        _pick(rng, "conj3", 29, 29),  # k - v = 5
        _pick(rng, "lr3", 193, 197, lambda p, r: p % 4 == 1),  # k - v = 3
        _pick(rng, "conj1", 997, 1021, lambda p, r: p % 3 == 1),  # k - v = 2
        {
            # Criterion 13(b): d2 does not hold mod p^7; at p = 5 the
            # witness is exactly 6.
            "name": "control d2 mod 5^7",
            "ops": [{"kind": "witness", "claim": "d2", "p": 5, "r": 1, "k": 7, "expect": 6}],
        },
    ]


def series_ladder(seed: int) -> list[dict]:
    rng = _rng("series-ladder", seed, "ladder")
    # The default thm1 sweep, one scan per r: thm1 uses no memo, so the
    # split changes no op, and the 57 small ops are timed in five processes
    # instead of one short window.
    return [_sweep("thm1", 200, [r]) for r in _family_rs("thm1")] + [
        _pick(rng, "thm1", 980, 1020),
        _pick(rng, "thm1", 1980, 2020),
        _pick(rng, "thm1", 2980, 3020),
        _pick(rng, "thm2", 980, 1020),
        _pick(rng, "thm2", 1980, 2020),
        {
            # Criterion 13(a): adding p^3 to the thm1 sum at (7, 1) leaves a
            # valuation of exactly 3, below the claimed 4.
            "name": "control thm1 + 7^3",
            "ops": [{"kind": "perturbed", "claim": "thm1", "p": 7, "r": 1, "power": 3, "expect": 3}],
        },
    ]


def q_analogue(seed: int) -> list[dict]:
    rng = _rng("q-analogue", seed, "twist")
    instances = [(2, 1, 0, True), (3, -1, 0, True), (7, 1, 0, True), (13, -1, 0, True)]
    # A nonzero twist must break the divisibility on both routes.
    instances.append((7, 1, rng.choice([1, 2, 3]), False))
    return [
        {
            "name": f"qverify p={p} r={r} twist={t}",
            "ops": [{"kind": "qverify", "p": p, "r": r, "twist": t, "zero": zero}],
        }
        for p, r, t, zero in instances
    ]


def _unit_rational(rng: random.Random, p: int, bound: int) -> Fraction:
    while True:
        den = rng.randint(1, bound)
        if den % p:
            return Fraction(rng.randint(-bound, bound), den)


def _conjugate_products() -> list[dict]:
    """The 100 order-4 and 100 order-5 cases of acceptance criterion 11,
    drawn from its fixed seed.  They are not reseeded: a few large cases
    cost as much as the smallest proof chains, so a seeded draw would move
    the op_tail_ms boundary from seed to seed."""
    rng = random.Random(3111)
    ops = []
    for order in [4] * 100 + [5] * 100:
        p = rng.choice([3, 5, 7, 11, 13])
        a = _unit_rational(rng, p, 20)
        b = _unit_rational(rng, p, 20)
        k = rng.randint(0, 6)
        ops.append(
            {"kind": "conjprod", "a": str(a), "b": str(b), "p": p, "k": k, "order": order}
        )
    return ops


def _chain(claim: str, p: int, r: int) -> dict:
    return {"name": f"proofchain {claim} p={p} r={r}", "ops": [{"kind": "chain", "claim": claim, "p": p, "r": r}]}


def _pick_chain(rng: random.Random, claim: str, lo: int, hi: int) -> dict:
    candidates = [
        (p, r) for p in primes_in(lo, hi) for r in _family_rs(claim) if admissible(claim, p, r)
    ]
    return _chain(claim, *rng.choice(candidates))


def field_chains(seed: int) -> list[dict]:
    rng = _rng("field-chains", seed, "inputs")
    fuzz_seed = rng.randrange(1, 10**6)
    groups = [
        {
            "name": f"identity --name all --seed {fuzz_seed}",
            "ops": [
                {"kind": "fuzz", "fn": fn, "trials": 200, "seed": fuzz_seed}
                for fn in ("fuzz_whipple", "fuzz_karlsson_minton", "fuzz_d1")
            ],
        },
    ]
    # No memo is involved, so the 200 kernel cases run in four processes;
    # their small op times then sample four stretches of a run, not one.
    products = _conjugate_products()
    groups += [
        {"name": f"conjugate products {i + 1}/4", "ops": products[i * 50:(i + 1) * 50]}
        for i in range(4)
    ]
    groups += [_chain("thm1", p, r) for p, r in [(7, 1), (13, -1), (19, -3)]]
    groups += [_pick_chain(rng, "thm1", 199, 223), _pick_chain(rng, "thm1", 397, 409)]
    groups += [_chain("thm2", p, r) for p, r in [(5, 1), (13, -1)]]
    groups += [_pick_chain(rng, "thm2", 199, 223), _pick_chain(rng, "thm2", 397, 409)]
    return groups


WORKLOADS = {
    "gamma-sweep": gamma_sweep,
    "series-ladder": series_ladder,
    "q-analogue": q_analogue,
    "field-chains": field_chains,
}
