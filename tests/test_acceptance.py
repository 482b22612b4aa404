"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Conjecture-grade criteria record a violation distinctly (xfail) instead of
failing the build; every other criterion is a hard assertion at the stated
modulus.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from sclab import cli
from sclab.claims import (
    InadmissibleInstanceError,
    admissible,
    lhs_value,
    proof_chain_thm1,
    proof_chain_thm2,
    rhs_residue,
    scan,
    verify,
)
from sclab.cyclotomic import CycElement
from sclab.hyperkernel import (
    check_d1,
    check_karlsson_minton,
    check_whipple,
    conjugate_product_congruence,
    fuzz_d1,
    fuzz_karlsson_minton,
    fuzz_whipple,
)
from sclab.padic import PadicContext, vp
from sclab.pgamma import (
    SpanHitsMultipleOfPError,
    ap,
    gamma_p,
    gamma_p_int,
    pochhammer_residue_direct,
    pochhammer_residue_via_gamma,
)
from sclab.qring import verify_q_conjecture
from sclab.rationals import primes_in


def note(num: int, text: str, started: float) -> None:
    print(f"ACCEPTANCE {num:>2}: PASS - {text} ({time.perf_counter() - started:.1f}s)")


def random_unit_rational(rng: random.Random, p: int, bound: int = 50) -> Fraction:
    while True:
        den = rng.randint(1, bound)
        if den % p:
            return Fraction(rng.randint(-bound, bound), den)


def test_criterion_01_fifth_power_sweep():
    started = time.perf_counter()
    result = scan("thm1", 200, [1, -1, -3, -7, -9])
    assert result.reports, "sweep produced no instances"
    for rep in result.reports:
        assert rep.passed, (rep.p, rep.r)
        assert rep.witness_valuation is None or rep.witness_valuation >= 4
    expected = {
        (p, r)
        for p in primes_in(2, 200)
        for r in (1, -1, -3, -7, -9)
        if admissible("thm1", p, r)
    }
    assert {(rep.p, rep.r) for rep in result.reports} == expected
    note(1, f"thm1 witness >= 4 on {len(result.reports)} instances, p <= 200", started)


def test_criterion_02_sixth_power_gamma_sweep():
    started = time.perf_counter()
    result = scan("thm2", 47, [1, -1, -2, -4, -5])
    assert result.reports
    for rep in result.reports:
        assert rep.passed and rep.modulus_exponent == 5, (rep.p, rep.r)
    expected = {
        (p, r)
        for p in primes_in(3, 47)
        for r in (1, -1, -2, -4, -5)
        if admissible("thm2", p, r)
    }
    assert {(rep.p, rep.r) for rep in result.reports} == expected
    assert [(p, r) for p, r, _ in result.excluded] == [(2, 1)]
    note(2, f"thm2 holds mod p^5 on {len(result.reports)} instances, 3 <= p <= 47", started)


def test_criterion_03_cubed_half_series():
    started = time.perf_counter()
    result = scan("lr3", 97)
    assert [rep.p for rep in result.reports] == primes_in(3, 97)
    for rep in result.reports:
        assert rep.passed and rep.modulus_exponent == 3
        assert rep.case_label == f"p%4={rep.p % 4}"
    note(3, "lr3 case split holds mod p^3 for every odd prime p <= 97", started)


def test_criterion_04_sixth_power_weight_plus_one():
    started = time.perf_counter()
    result = scan("d2", 23)
    assert [rep.p for rep in result.reports] == primes_in(5, 23)
    for rep in result.reports:
        assert rep.passed and rep.modulus_exponent == 6
        assert rep.case_label == f"p%6={rep.p % 6}"
    note(4, "d2 case split holds mod p^6 for 5 <= p <= 23", started)


def test_criterion_05_sixth_power_weight_minus_one():
    started = time.perf_counter()
    result = scan("a1", 47)
    assert [rep.p for rep in result.reports] == primes_in(5, 47)
    for rep in result.reports:
        assert rep.passed and rep.modulus_exponent == 5
        assert rep.case_label == f"p%6={rep.p % 6}"
    note(5, "a1 case split holds mod p^5 for 5 <= p <= 47", started)


def test_criterion_06_conjecture_mod_p6():
    started = time.perf_counter()
    result = scan("conj1", 23, [1, -1, -2, -4, -5])
    assert result.reports
    violations = [rep for rep in result.reports if not rep.passed]
    if violations:
        for rep in violations:
            print(
                f"CONJECTURE VIOLATED: conj1 at (p={rep.p}, r={rep.r}), "
                f"witness {rep.witness_valuation}"
            )
        pytest.xfail("conj1 violated; recorded distinctly, not a build failure")
    note(6, f"conj1 holds mod p^6 on {len(result.reports)} instances, p <= 23", started)


def test_criterion_07_conjecture_linear_prefactor():
    started = time.perf_counter()
    result = scan("conj3", 23, [1, -1, -2, -4, -5])
    assert result.reports
    for rep in result.reports:
        assert rep.p >= 7
    violations = [rep for rep in result.reports if not rep.passed]
    # the mod p^2 restriction is established, so it is a hard assertion
    restricted = scan("conj3", 47, [1, -1, -2, -4, -5], modulus_exponent=2)
    for rep in restricted.reports:
        assert rep.passed, (rep.p, rep.r)
    if violations:
        for rep in violations:
            print(
                f"CONJECTURE VIOLATED: conj3 at (p={rep.p}, r={rep.r}), "
                f"witness {rep.witness_valuation}"
            )
        pytest.xfail("conj3 violated mod p^6; recorded distinctly")
    note(
        7,
        f"conj3 holds mod p^6 on {len(result.reports)} instances (p <= 23) "
        f"and mod p^2 on {len(restricted.reports)} (p <= 47)",
        started,
    )


def test_criterion_08_q_analogue():
    started = time.perf_counter()
    pairs = [(2, 1), (7, 1), (17, 1), (3, -1), (13, -1), (23, -1)]
    checked = 0
    for p, r in pairs:
        if not admissible("thm1", p, r) or p == 5:
            continue
        report = verify_q_conjecture(p, r)
        assert report.ring_zero, (p, r)
        assert report.division_zero, (p, r)
        assert report.methods_agree, (p, r)
        checked += 1
    assert checked == 6  # every listed pair is admissible
    note(8, "q-analogue vanishes in Q[q]/(Phi_p^4) on all 6 pairs, both routes", started)


def test_criterion_09_identity_suite():
    started = time.perf_counter()
    for fuzzer in (fuzz_whipple, fuzz_karlsson_minton, fuzz_d1):
        result = fuzzer(trials=200, seed=20240517)
        assert result.passed, result.failures

    i_unit = CycElement.zeta(4)
    for p, r in [(7, 1), (13, -1)]:
        a = Fraction(r, 5)
        offset = CycElement.from_rational(4, Fraction(3 * p, 5)) * i_unit
        d = CycElement.from_rational(4, a) + offset
        e = CycElement.from_rational(4, a) - offset
        assert check_whipple(
            a, Fraction(r + 5, 10), Fraction(r + 3 * p, 5), d, e, (3 * p - r) // 5
        )
        n = (3 * p - r) // 5
        bs = [Fraction(2 * r - 3 * p, 5), Fraction(r + 5, 10), Fraction(5 - 3 * p, 5)]
        ms = [(1 - r) // 2, (2 * p + r - 5) // 10, (2 * p + r - 5) // 5]
        assert check_karlsson_minton(n, bs, ms)

    z = CycElement.zeta(5)
    for p, r in [(5, 1), (13, -1)]:
        scale = CycElement.from_rational(5, Fraction(2 * p, 3))
        assert check_d1(
            Fraction(r, 3), scale * z, scale * z ** 2, scale * z ** 3,
            (2 * p - r) // 3, 1 - r,
        )
    # (11, -1) is not a valid instance of the quintic-field specialization:
    # the admissibility predicate rejects it (11 = 2 mod 3, but -r = 1)
    assert not admissible("thm2", 11, -1)
    note(9, "600 fuzz trials pass; exact field specializations pass", started)


def test_criterion_10_gamma_lemma_suite():
    started = time.perf_counter()
    rng = random.Random(98)
    primes = primes_in(3, 47)
    instances = []
    for _ in range(498):
        k = rng.randint(1, 4)
        eligible = [p for p in primes if p ** k <= 120_000]
        instances.append((rng.choice(eligible), k))
    instances += [(47, 4), (43, 4)]  # heavy corners of the sampled region
    assert len(instances) >= 500

    bb6_checked = 0
    for p, k in instances:
        ctx = PadicContext(p, k)
        x = random_unit_rational(rng, p)
        # values at 0 and 1
        assert gamma_p(0, ctx).value == 1
        assert gamma_p(1, ctx).value == ctx.modulus - 1
        # reflection
        assert (gamma_p(x, ctx) * gamma_p(1 - x, ctx)).value == (-1) ** ap(x, p) % ctx.modulus
        # mod-p continuity
        mod_p = PadicContext(p, 1)
        assert gamma_p(x, mod_p) == gamma_p(x + p * rng.randint(1, 5), mod_p)
        # translation, both branches
        y = x * p if rng.random() < 0.25 else x
        ratio = gamma_p(y + 1, ctx) * gamma_p(y, ctx).inverse()
        if vp(y, p) == 0:
            assert ratio == ctx.reduce(-y)
        else:
            assert ratio.value == ctx.modulus - 1
        # rising factorial through the Gamma quotient
        n = rng.randint(0, 6)
        try:
            via = pochhammer_residue_via_gamma(x, n, ctx)
        except SpanHitsMultipleOfPError:
            continue
        assert via == pochhammer_residue_direct(x, n, ctx)
        bb6_checked += 1
    assert bb6_checked >= 300

    # representative stability: values depend on m only through m mod p^k
    stability = 0
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11, 13])
        k = rng.randint(1, 4)
        ctx = PadicContext(p, k)
        if ctx.modulus > 20_000:
            k = 2
            ctx = PadicContext(p, k)
        m = rng.randrange(ctx.modulus)
        t = rng.randint(1, 5)
        assert gamma_p_int(m, ctx) == gamma_p_int(m + t * ctx.modulus, ctx)
        stability += 1
    assert stability == 100
    note(10, f"Gamma lemmas hold on {len(instances)} sampled contexts", started)


def test_criterion_11_conjugate_product_kernels():
    started = time.perf_counter()
    rng = random.Random(3111)
    count4 = count5 = 0
    while count4 < 100 or count5 < 100:
        order = 4 if count4 < 100 else 5
        p = rng.choice([3, 5, 7, 11, 13])
        a = random_unit_rational(rng, p, 20)
        b = random_unit_rational(rng, p, 20)
        k = rng.randint(0, 6)
        assert conjugate_product_congruence(a, b, p, k, order), (order, p, a, b, k)
        if order == 4:
            count4 += 1
        else:
            count5 += 1
    note(11, "conjugate-orbit products collapse mod p^4/p^2 and p^5", started)


def test_criterion_12_proof_chains():
    started = time.perf_counter()
    for p, r in [(7, 1), (13, -1), (19, -3)]:
        chain = proof_chain_thm1(p, r)
        assert chain.status == "pass", (p, r, chain.steps)
        by_name = {step.name: step for step in chain.steps}
        assert by_name["series-reduction"].modulus_exponent == 4
        assert by_name["prefactor-valuation"].modulus_exponent == 2
        assert by_name["imaginary-shift-swap"].modulus_exponent == 2
        assert by_name["real-shift-swap"].modulus_exponent == 2

    # the criterion's (11, -1) entry is rejected by the stated side
    # conditions ((2p - r)/3 is not even an integer there); the nearest
    # admissible negative-r instance is (13, -1)
    with pytest.raises(InadmissibleInstanceError):
        proof_chain_thm2(11, -1)
    for p, r in [(5, 1), (13, -1)]:
        chain = proof_chain_thm2(p, r)
        assert chain.status == "pass", (p, r, chain.steps)
        by_name = {step.name: step for step in chain.steps}
        assert by_name["series-reduction"].modulus_exponent == 5
        assert by_name["remainder-block"].modulus_exponent == 1
        assert by_name["ratio-closed-form"].modulus_exponent == 5
        assert by_name["gamma-quotient-form"].modulus_exponent == 1
        assert by_name["assembly"].modulus_exponent == 5
        assert by_name["leading-pochhammer-extraction"].passed
        assert by_name["paired-pochhammer-extraction"].passed
    note(12, "proof chains replay at their stated moduli", started)


def test_criterion_13_negative_controls():
    started = time.perf_counter()
    # (a) perturbing the fifth-power sum by p^3 drops the witness below 4
    p = 7
    perturbed = lhs_value("thm1", p, 1) + Fraction(p) ** 3
    assert vp(perturbed, p) == 3 < 4

    # (b) the d2 congruence does not survive mod p^7: search primes <= 23
    failing = None
    for q in primes_in(5, 23):
        ctx = PadicContext(q, 7)
        witness = vp(lhs_value("d2", q) - rhs_residue("d2", q, None, ctx).value, q)
        if witness < 7:
            failing = (q, witness)
            break
    assert failing is not None, "no mod p^7 counterexample found"
    assert failing == (5, 6)  # first failure, frozen from the search

    # (c) twisting the q-side exponent by k breaks the divisibility
    twisted = verify_q_conjecture(7, 1, exponent_twist=1)
    assert twisted.methods_agree and not twisted.zero
    note(13, f"negative controls fail as required (d2 mod p^7 fails at p={failing[0]})", started)


def test_criterion_14_determinism_across_workers(capsys):
    started = time.perf_counter()
    outputs = []
    for workers in ("1", "8"):
        code = cli.main(
            [
                "scan", "--claim", "d2", "--pmax", "13",
                "--workers", workers, "--format", "json", "--test-mode",
            ]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])  # well-formed
    note(14, "scan output is byte-identical for 1 and 8 workers", started)
