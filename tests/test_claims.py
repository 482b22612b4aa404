import hashlib
import json
import math
import re
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

import pytest

import identity_reference as ref
from sclab import claims, hyperkernel
from sclab.claims import (
    FAMILIES,
    FamilyInfo,
    InadmissibleInstanceError,
    UnsupportedInstanceError,
    admissible,
    lhs_residue,
    lhs_spec,
    lhs_value,
    proof_chain_thm1,
    proof_chain_thm2,
    resolve_r,
    rhs_form,
    rhs_residue,
    rhs_residue_direct,
    scan,
    verify,
)
from sclab.cyclotomic import CycElement
from sclab.padic import NonIntegralInputError, PadicContext, vp
from sclab.pgamma import gamma_p
from sclab.qring import QRing, verify_q_conjecture
from sclab.rationals import pochhammer, primes_in, rising


def test_family_registry():
    assert set(FAMILIES) == {"lr3", "d2", "a1", "thm1", "thm2", "conj1", "conj3"}
    exponents = {fam.id: fam.modulus_exponent for fam in FAMILIES.values()}
    assert exponents == {
        "lr3": 3, "d2": 6, "a1": 5, "thm1": 4, "thm2": 5, "conj1": 6, "conj3": 6,
    }


def test_conj1_is_thm2_conjectured_mod_p6():
    # conj1 changes only what makes it a conjecture; everything else is
    # thm2's entry, so the two cannot drift apart
    thm2, conj1 = FAMILIES["thm2"], FAMILIES["conj1"]
    changed = {
        "id", "description", "modulus_exponent", "conjecture",
        "default_p_max", "conditions",
    }
    assert sorted(FamilyInfo.__slots__) == sorted(changed | {
        "takes_r", "default_r_values", "series", "cases", "case_modulus",
        "gammas", "finite_sum", "hand_verified",
    })
    for name in FamilyInfo.__slots__:
        if name not in changed:
            assert getattr(conj1, name) == getattr(thm2, name), name
    assert (conj1.modulus_exponent, conj1.default_p_max) == (6, 23)
    assert conj1.conjecture and not thm2.conjecture
    assert conj1.conditions[:-1] == thm2.conditions
    assert admissible("thm2", 2, 1) and not admissible("conj1", 2, 1)


def test_fixed_weight_canonical_r_is_the_only_default():
    fixed = [fam for fam in FAMILIES.values() if not fam.takes_r]
    assert {fam.id for fam in fixed} == {"lr3", "d2", "a1"}
    for fam in fixed:
        assert fam.default_r_values == (fam.canonical_r,)


def test_admissible_examples():
    assert admissible("thm1", 7, 1).ok
    assert not admissible("thm1", 3, 1).ok
    assert admissible("thm2", 2, 1).ok
    assert admissible("thm1", 2, 1).ok
    assert not admissible("thm1", 5, 1).ok
    assert not admissible("thm1", 7, 2).ok  # even r
    assert not admissible("thm1", 7, -5).ok  # divisible by 5
    assert not admissible("thm1", 7, 3).ok  # r > 1
    assert not admissible("thm2", 11, -1).ok  # 11 = 2 mod 3 but -r = 1
    assert admissible("thm2", 13, -1).ok
    assert not admissible("conj1", 2, 1).ok  # p must exceed 3
    assert admissible("conj3", 7, 1).ok
    assert not admissible("conj3", 5, -1).ok  # p below 7
    assert admissible("lr3", 3).ok
    assert not admissible("lr3", 2).ok
    assert not admissible("d2", 3).ok


# sha256 of json.dumps([[claim, p, r, admissible(claim, p, r).reason], ...])
# over every family, 0 <= p <= 200 and -15 <= r <= 1: pins each side
# condition's reason string and the order in which they are tried
ADMISSIBLE_REASONS_SHA256 = (
    "76606466e4c7e3862144e6181b1a8249a10138639be1d79b05f8315b61ac2abd"
)


def test_admissible_reasons_golden():
    rows = [
        [claim, p, r, admissible(claim, p, r).reason]
        for claim in sorted(FAMILIES)
        for p in range(201)
        for r in range(-15, 2)
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == ADMISSIBLE_REASONS_SHA256


def test_admissible_reports_reason():
    result = admissible("thm1", 3, 1)
    assert not result.ok and "mod 5" in result.reason


def test_resolve_r_for_fixed_families():
    assert resolve_r("d2", None) == 1
    assert resolve_r("a1", None) == -1
    assert resolve_r("lr3", None) == 0
    with pytest.raises(ValueError):
        resolve_r("d2", -1)
    with pytest.raises(ValueError):
        resolve_r("thm1", None)


def test_lhs_value_against_literal_oracle():
    # independent oracle: raw pochhammer products, no series machinery
    def oracle(base, weight_slope, weight_const, power, p):
        total = Fraction(0)
        for k in range(p):
            total += (
                (weight_slope * k + weight_const)
                * pochhammer(base, k) ** power
                / Fraction(math.factorial(k)) ** power
            )
        return total

    assert lhs_value("lr3", 5) == oracle(Fraction(1, 2), 0, 1, 3, 5)
    assert lhs_value("d2", 7) == oracle(Fraction(1, 3), 6, 1, 6, 7)
    assert lhs_value("a1", 7) == oracle(Fraction(-1, 3), 6, -1, 6, 7)
    assert lhs_value("thm1", 7, 1) == oracle(Fraction(1, 5), 10, 1, 5, 7)
    assert lhs_value("thm2", 5, -2) == oracle(Fraction(-2, 3), 6, -2, 6, 5)


def test_lhs_spec_shape():
    spec = lhs_spec("thm1", 11, -1)
    assert spec.truncation == 11
    assert spec.upper == (Fraction(-1, 5),) * 5
    assert spec.factorial_power == 5
    assert spec.weight == (Fraction(10), Fraction(-1))


def test_rhs_residue_thm1_is_zero():
    ctx = PadicContext(7, 4)
    assert rhs_residue("thm1", 7, 1, ctx).value == 0


def test_rhs_form_refuses_a_prime_outside_its_case_table():
    # 2 is neither 1 nor 3 mod 4, and 3 is neither 1 nor 5 mod 6
    with pytest.raises(InadmissibleInstanceError):
        rhs_form("lr3", 2)
    with pytest.raises(InadmissibleInstanceError):
        rhs_form("d2", 3)


def test_rhs_residue_matches_full_precision():
    # the valuation-aware assembly agrees with evaluating every Gamma
    # factor at full precision
    cases = [
        ("lr3", 5, None), ("lr3", 7, None),
        ("d2", 7, None), ("d2", 11, None),
        ("a1", 7, None), ("a1", 11, None),
        ("thm2", 5, 1), ("thm2", 7, -1), ("thm2", 11, -2),
        ("conj1", 5, 1), ("conj3", 7, 1), ("conj3", 11, -1),
    ]
    for claim, p, r in cases:
        assert rhs_residue(claim, p, r) == rhs_residue_direct(claim, p, r)


def test_rhs_residue_matches_full_precision_at_large_p():
    # primes where the Gamma factors at full precision p^k are large
    cases = [
        ("conj3", 29, -1), ("d2", 23, 1), ("a1", 47, -1),
        ("lr3", 97, None), ("conj1", 23, 1),
    ]
    for claim, p, r in cases:
        assert rhs_residue(claim, p, r) == rhs_residue_direct(claim, p, r)
    assert verify("conj3", 43, 1).passed


def test_verify_at_large_p_with_long_gamma_tails():
    # the Gamma arguments' representatives leave tails of tens of thousands
    # of units after the last full block; a tail formed as one exact product
    # and reduced once takes ~50 s here, one reduction per unit ~0.5 s
    rep = verify("conj3", 100019, -1)
    assert rep.passed and rep.witness_valuation == 6
    assert rep.rhs_residue == 430607147050050033652995978624


def test_thm2_specializations_match_fixed_families():
    # r = 1 collapses onto the second d2 case, r = -1 onto the first a1
    # case, both mod p^5
    for p in [5, 11, 17, 23]:  # p = 5 mod 6
        ctx = PadicContext(p, 5)
        via_thm2 = rhs_residue("thm2", p, 1, ctx)
        gamma = gamma_p(Fraction(1, 3), PadicContext(p, 1)).value
        direct = ctx.reduce(
            Fraction(-10, 27) * p ** 4 * gamma ** 9
        )
        assert via_thm2 == direct
    for p in [7, 13, 19, 31]:  # p = 1 mod 6
        ctx = PadicContext(p, 5)
        via_thm2 = rhs_residue("thm2", p, -1, ctx)
        gamma = gamma_p(Fraction(2, 3), PadicContext(p, 1)).value
        direct = ctx.reduce(140 * Fraction(p) ** 4 * gamma ** 9)
        assert via_thm2 == direct


def test_verify_examples():
    rep = verify("thm1", 7, 1)
    assert rep.passed and rep.witness_valuation >= 4
    assert rep.rhs_residue == 0

    rep = verify("thm1", 19, -3)
    assert rep.passed and rep.witness_valuation >= 4

    rep = verify("d2", 11)
    assert rep.passed and rep.case_label == "p%6=5" and rep.modulus_exponent == 6


def test_witness_capped_at_modulus_for_gamma_forms():
    # a Gamma-form right side is known only mod p^k; with the residue in
    # [0, p^k) these instances read 4, 7 and 7 uncapped
    for claim, p, r, k in [("lr3", 59, None, 3), ("thm2", 5, -2, 5), ("conj1", 7, -1, 6)]:
        rep = verify(claim, p, r)
        assert rep.modulus_exponent == k
        assert rep.witness_valuation == k and rep.passed
    # thm1's right side is exactly 0, so its witness stays exact
    assert verify("thm1", 3, -1).witness_valuation == 5
    assert verify("thm1", 61, -7).witness_valuation == 5


def test_verify_rejects_inadmissible():
    with pytest.raises(InadmissibleInstanceError):
        verify("thm1", 3, 1)


def test_verify_thm2_p2_is_out_of_machine_scope():
    assert admissible("thm2", 2, 1).ok
    with pytest.raises(UnsupportedInstanceError):
        verify("thm2", 2, 1)


def test_both_right_side_routes_refuse_hand_verified_instance():
    for route in (rhs_residue, rhs_residue_direct):
        with pytest.raises(UnsupportedInstanceError):
            route("thm2", 2, 1)


@pytest.mark.parametrize("side", [lhs_residue, rhs_residue, rhs_residue_direct])
def test_residues_refuse_a_context_for_another_prime(side):
    # a residue of lr3 at p = 5 taken mod 7^3 is a residue of nothing
    with pytest.raises(ValueError, match="p = 7"):
        side("lr3", 5, None, PadicContext(7, 3))


def test_exponent_override_only_lowers():
    rep = verify("d2", 11, modulus_exponent=5)
    assert rep.modulus_exponent == 5 and rep.passed
    with pytest.raises(ValueError):
        verify("d2", 11, modulus_exponent=7)


def test_modulus_exponent_must_be_an_int():
    # True once verified at exponent 1 and reported modulus_exponent True,
    # and 2.0 failed inside pow; both are refused with the value named
    for claim, r, k in (("d2", None, True), ("thm1", 1, 2.0), ("thm1", 1, False), ("lr3", None, Fraction(2))):
        with pytest.raises(TypeError, match=f"^modulus exponent must be an int, got {re.escape(repr(k))}$"):
            verify(claim, 7 if claim != "lr3" else 5, r, k)
    with pytest.raises(TypeError, match="^modulus exponent must be an int, got 2.0$"):
        scan("thm1", 30, [1], 2.0)


@pytest.mark.parametrize("bad", [True, 7.0])
@pytest.mark.parametrize("name, call", [
    ("r", lambda bad: verify("thm1", 7, bad)),
    ("p", lambda bad: admissible("thm1", bad, 1)),
    ("p", lambda bad: verify("thm1", bad, 1)),
    ("r", lambda bad: scan("thm1", 20, [bad])),
    ("r", lambda bad: proof_chain_thm1(7, bad)),
    ("r", lambda bad: verify_q_conjecture(7, bad)),
    ("n", lambda bad: hyperkernel.check_whipple(7, 2, 3, 5, 13, bad)),
    ("exponent_twist", lambda bad: verify_q_conjecture(7, 1, bad)),
    ("p", lambda bad: QRing(bad)),
    ("power", lambda bad: QRing(7, bad)),
], ids=[
    "verify-r", "admissible-p", "verify-p", "scan-r", "chain-r", "q-analogue-r", "whipple-n",
    "q-analogue-twist", "ring-p", "ring-power",
])
def test_instance_numbers_must_be_ints(name, call, bad):
    # True once ran as r = 1 and was reported as r=True, and p = 7.0 was
    # admissible and then failed inside PadicContext; both are refused
    # with the value named.  On the q side a True twist was reported as
    # exponent_twist=True and QRing(7, True) built a ring of power True
    with pytest.raises(TypeError, match=rf"^{name}\b.* must be .*ints?\b.*, got .*{re.escape(repr(bad))}"):
        call(bad)


def test_q_analogue_inadmissible_message():
    # the q-side admits through the claims' own check, under its own label
    for (p, r), reason in (((11, -1), "2p + r must vanish mod 5"), ((9, 1), "9 is not prime")):
        with pytest.raises(InadmissibleInstanceError) as got:
            verify_q_conjecture(p, r)
        assert str(got.value) == f"(q-analogue, p={p}, r={r}): {reason}"


def test_d2_and_thm2_agree_mod_p5():
    for p in [5, 11, 17]:
        assert (
            verify("d2", p, modulus_exponent=5).passed
            == verify("thm2", p, 1).passed
        )


def test_scan_membership():
    result = scan("thm1", 30, [1, -1, -3])
    pairs = [(rep.p, rep.r) for rep in result.reports]
    assert pairs == sorted(pairs)
    for expected in [(7, 1), (13, -1), (19, -3)]:
        assert expected in pairs
    for p, r in pairs:
        assert admissible("thm1", p, r).ok
    assert result.all_passed


def test_scan_lr3_includes_every_odd_prime():
    result = scan("lr3", 20)
    assert [rep.p for rep in result.reports] == [3, 5, 7, 11, 13, 17, 19]
    assert result.all_passed


@pytest.mark.parametrize("p_max", [1, 0, -3])
def test_scan_refuses_p_max_below_two(p_max):
    with pytest.raises(ValueError, match=f"p_max must be at least 2, got {p_max}"):
        scan("lr3", p_max)


def test_scan_excludes_hand_verified_instance():
    result = scan("thm2", 7, [1])
    assert [(p, r) for p, r, _ in result.excluded] == [(2, 1)]
    assert [rep.p for rep in result.reports] == [5]


def test_scan_worker_count_independence():
    def key(result):
        return [
            (rep.claim, rep.p, rep.r, rep.lhs_residue, rep.rhs_residue,
             rep.witness_valuation, rep.passed)
            for rep in result.reports
        ]

    serial = scan("lr3", 30, workers=1)
    parallel = scan("lr3", 30, workers=4)
    assert key(serial) == key(parallel)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps
    serially, so no process is started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def _report_key(result):
    return [
        (rep.claim, rep.p, rep.r, rep.lhs_residue, rep.rhs_residue,
         rep.witness_valuation, rep.passed)
        for rep in result.reports
    ]


@pytest.mark.parametrize(
    "workers, cpus, expected",
    [(8, 16, 4), (8, 3, 3), (2, 16, 2), (8, None, None), (1, 16, None)],
)
def test_scan_clamps_worker_count(monkeypatch, workers, cpus, expected):
    # d2 up to 13 has four instances; None means no pool is made at all
    monkeypatch.setattr(claims, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(claims.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    result = scan("d2", 13, workers=workers)
    assert len(result.reports) == 4
    assert _RecordingPool.sizes == ([] if expected is None else [expected])
    assert _report_key(result) == _report_key(scan("d2", 13, workers=1))


@pytest.mark.parametrize("error", [BrokenProcessPool, OSError, PermissionError])
def test_scan_reports_serial_fallback(monkeypatch, capsys, error):
    def failing_pool(max_workers):
        raise error("no processes here")

    monkeypatch.setattr(claims, "ProcessPoolExecutor", failing_pool)
    monkeypatch.setattr(claims.os, "cpu_count", lambda: 4)
    result = scan("d2", 13, workers=4)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert error.__name__ in captured.err
    assert "serial" in captured.err
    assert _report_key(result) == _report_key(scan("d2", 13, workers=1))


def test_proof_chain_thm1():
    chain = proof_chain_thm1(7, 1)
    assert chain.status == "pass"
    names = [step.name for step in chain.steps]
    assert names == [
        "transformation-instance",
        "series-reduction",
        "tail-vanishing",
        "prefactor-valuation",
        "imaginary-shift-swap",
        "real-shift-swap",
        "karlsson-minton-vanishing",
        "assembly",
    ]
    assert all(step.passed for step in chain.steps)


def _tail_step_by_values(p, r):
    """The thm1 chain's tail step read off the values themselves: form
    (a)_k / k! and (10k + r) (a)_k^5 / k!^5 and take their valuations.
    Returns (passed, witness)."""
    a, n = Fraction(r, 5), (3 * p - r) // 5
    rising = math.prod((a + j for j in range(n)), start=Fraction(1))
    factorial = math.factorial(n)
    ratio_ok, witness = True, math.inf
    for k in range(n + 1, p):
        rising *= a + (k - 1)
        factorial *= k
        ratio_ok = ratio_ok and vp(rising / factorial, p) >= 1
        witness = min(witness, vp((10 * k + r) * rising ** 5 / Fraction(factorial) ** 5, p))
    return ratio_ok and witness >= 5, None if witness == math.inf else witness


@pytest.mark.parametrize("p, r", [(397, -9), (409, -3), (211, -7), (19, -3), (13, -1), (7, 1)])
def test_proof_chain_thm1_tail_step_matches_fifth_powers(p, r):
    tail = next(s for s in proof_chain_thm1(p, r).steps if s.name == "tail-vanishing")
    assert (tail.passed, tail.witness_valuation) == _tail_step_by_values(p, r)


def _tail_step_fraction_loop(p, r):
    """The tail step as its valuation loop stood with Fraction arithmetic:
    v_p(a + k - 1) from a Fraction sum and v_p(k) taken at every step."""
    a, power, slope, const = FAMILIES["thm1"].series(r)
    n = (3 * p - r) // 5
    ratio_ok, witness = True, math.inf
    ratio_v = vp(pochhammer(a, n) / math.factorial(n), p)
    for k in range(n + 1, p):
        ratio_v += vp(a + k - 1, p) - vp(k, p)
        ratio_ok = ratio_ok and ratio_v >= 1
        witness = min(witness, vp(slope * k + const, p) + power * ratio_v)
    return ratio_ok and witness >= power, None if witness == math.inf else witness


def test_proof_chain_thm1_tail_step_matches_the_fraction_loop():
    # every admissible default r with 3 <= p <= 130, and two larger instances
    grid = [(p, r) for p in primes_in(3, 130) for r in FAMILIES["thm1"].default_r_values]
    grid = [(p, r) for p, r in grid if admissible("thm1", p, r)] + [(397, -9), (409, -3)]
    assert len(grid) == 39
    for p, r in grid:
        tail = next(s for s in proof_chain_thm1(p, r).steps if s.name == "tail-vanishing")
        assert (tail.passed, tail.witness_valuation) == _tail_step_fraction_loop(p, r), (p, r)


def _thm1_chain_by_values(p, r):
    """Each thm1 step's (witness, passed), from the value-level sides of
    identity_reference and the exact left side."""
    import identity_reference as ref

    def rational(x):
        return x.rational_value() if isinstance(x, CycElement) else x

    def step(k, difference):
        w = vp(difference, p)
        return None if w == math.inf else w, w >= k

    n = (3 * p - r) // 5
    a, b, c = Fraction(r, 5), Fraction(r + 5, 10), Fraction(r + 3 * p, 5)
    shift = Fraction(3 * p, 5) * CycElement.zeta(4)
    lhs76, prefactor, f43_a = ref.whipple_sides(a, b, c, a + shift, a - shift, n)
    f43_b = ref.whipple_series(a, b, c, a, a, n)
    ms = [(1 - r) // 2, (2 * p + r - 5) // 10, (2 * p + r - 5) // 5]
    f43_c = ref.karlsson_minton_series(n, (a - n, 1 + a - b, 1 + a - c), ms)
    passed, witness = _tail_step_by_values(p, r)
    report = verify("thm1", p, r)
    return [
        (None, lhs76 == prefactor * f43_a),
        step(4, rational(lhs76) - lhs_value("thm1", p, r) / r),
        (witness, passed),
        step(2, rational(prefactor)),
        step(2, rational(f43_a) - f43_b),
        step(2, f43_b - f43_c),
        (None, f43_c == 0),
        (report.witness_valuation, report.passed),
    ]


@pytest.mark.parametrize("p, r", [(7, 1), (13, -1), (19, -3), (13, -11), (29, -13)])
def test_proof_chain_thm1_pairs_match_the_value_level_sides(p, r):
    # the chain runs on the identity builders' integer pairs; the witnesses
    # must be those of the sides evaluated as field values
    steps = proof_chain_thm1(p, r).steps
    assert [(s.witness_valuation, s.passed) for s in steps] == _thm1_chain_by_values(p, r)


def test_proof_chain_thm1_skips_p_two():
    chain = proof_chain_thm1(2, 1)
    assert chain.status == "skipped"
    assert chain.steps == []
    # the claim itself still verifies at p = 2
    assert verify("thm1", 2, 1).passed


def test_proof_chain_thm1_rejects_inadmissible():
    with pytest.raises(InadmissibleInstanceError):
        proof_chain_thm1(11, -1)


def test_proof_chain_thm2():
    chain = proof_chain_thm2(5, 1)
    assert chain.status == "pass"
    assert all(step.passed for step in chain.steps)
    assert len(chain.steps) == 8


def test_proof_chain_thm2_skips_p_two():
    chain = proof_chain_thm2(2, 1)
    assert chain.status == "skipped"


def test_proof_chain_thm2_rejects_inadmissible():
    # (11, -1) fails p = -r mod 3, so the chain's parameters are undefined
    with pytest.raises(InadmissibleInstanceError):
        proof_chain_thm2(11, -1)


def _thm2_chain_by_values(p, r):
    """Each thm2 step's (witness, passed), from the value-level sides of
    identity_reference, CycElement arithmetic and the exact left side."""

    def step(k, x):
        # a field value's valuation is the least of its coordinates'
        coords = x.coeffs if isinstance(x, CycElement) else (x,)
        w = min((vp(c, p) for c in coords if c), default=math.inf)
        return None if w == math.inf else w, w >= k

    n, j0, block = (2 * p - r) // 3, (p - 2 * r - 3) // 3, (p + r) // 3
    z, scale = CycElement.zeta(5), Fraction(2 * p, 3)
    args = (Fraction(r, 3), scale * z, scale * z ** 2, scale * z ** 3, n, 1 - r)
    lhs76, lows, (lead, *paired), lower, linear, tail43 = ref.d1_sides(*args)
    ratio = lead * math.prod(paired) / lower
    form = rhs_form("thm2", p, r)
    lead_rest = pochhammer(1 + Fraction(r, 3), n - 1)
    pair_sums = (z + z ** 2, z + z ** 3, z ** 2 + z ** 3)
    paired_rhs = Fraction(5 * p ** 3, 27) * math.prod(
        ref.rising_product(x + 1, j0) * ref.rising_product(1 + Fraction(p, 3) * (2 * s + 1), block)
        for x, s in zip(lows, pair_sums)
    )
    unit_ratio = (
        lead_rest * pochhammer(1 + Fraction(2 * r, 3), j0) ** 3
        * Fraction(math.factorial(block) ** 3, math.factorial(n) ** 4)
    )
    sign = (-1) ** (n + r + 1)
    gamma_lift = sign * claims._gamma_product(form.gamma_factors, PadicContext(p, 1)) % p
    series = lhs_value("thm2", p, r)
    assembly = step(5, series - form.coefficient * form.finite_sum * sign * unit_ratio)
    return [
        (None, lhs76 == ratio * linear * tail43),
        step(5, lhs76 - series / r),
        step(1, linear * tail43 - 8 * form.finite_sum),
        (None, lead == scale * lead_rest),
        (None, math.prod(paired) == paired_rhs),
        step(5, ratio - (-1) ** n * Fraction(10 * p ** 4, 81) * unit_ratio),
        step(1, unit_ratio - gamma_lift),
        (assembly[0], verify("thm2", p, r).passed and assembly[1]),
    ]


@pytest.mark.parametrize("p, r", [(5, 1), (7, -1), (13, -1), (17, -2), (29, -11)])
def test_proof_chain_thm2_pairs_match_the_value_level_sides(p, r):
    # the chain runs on _d1_parts's integer pairs; the witnesses must be those
    # of the sides evaluated as field values
    steps = proof_chain_thm2(p, r).steps
    assert [(s.witness_valuation, s.passed) for s in steps] == _thm2_chain_by_values(p, r)
    # the chain reads the seven-slot series and the ratio's lower product as
    # ints: their irrational parameters run over whole zeta_5 orbits
    z, scale = CycElement.zeta(5), Fraction(2 * p, 3)
    args = (Fraction(r, 3), scale * z, scale * z ** 2, scale * z ** 3, (2 * p - r) // 3, 1 - r)
    lhs, _, _, lower, *_ = hyperkernel._d1_parts(*args)
    assert [type(x) for x in (*lhs, lower)] == [int, int, int]


def test_proof_chain_thm2_divides_by_one_field_element(monkeypatch):
    # the remainder block's field denominator is the chain's one inverse;
    # every other step cross-multiplies or reads integer pairs
    calls = []
    inverse = CycElement.inverse
    monkeypatch.setattr(CycElement, "inverse", lambda self: calls.append(self) or inverse(self))
    for p, r in [(5, 1), (13, -1), (199, -4), (401, 1)]:
        calls.clear()
        assert proof_chain_thm2(p, r).passed
        assert len(calls) == 1, (p, r, len(calls))


def test_proof_chain_thm2_builds_one_field_value(monkeypatch):
    # that division is also the chain's one canonical field value: every
    # other step reads integer pairs or numerator tuples
    calls = []
    value = claims._value
    monkeypatch.setattr(claims, "_value", lambda *args: calls.append(args) or value(*args))
    for p, r in [(5, 1), (13, -1), (199, -4), (401, 1)]:
        calls.clear()
        assert proof_chain_thm2(p, r).passed
        assert len(calls) == 1, (p, r, len(calls))


def test_perturbed_instance_fails():
    # adding p^3 to the sum must drop the witness below the modulus
    p = 7
    perturbed = lhs_value("thm1", p, 1) + Fraction(p) ** 3
    assert vp(perturbed, p) == 3


def test_conjecture_flags():
    assert FAMILIES["conj1"].conjecture and FAMILIES["conj3"].conjecture
    assert not FAMILIES["thm1"].conjecture
    assert verify("conj1", 5, 1).conjecture


def test_unknown_claim():
    with pytest.raises(ValueError):
        verify("nope", 5, 1)


def test_default_r_sets():
    assert FAMILIES["thm1"].default_r_values == (1, -1, -3, -7, -9)
    assert FAMILIES["thm2"].default_r_values == (1, -1, -2, -4, -5)


def test_scan_counts_inadmissible():
    result = scan("thm1", 10, [1])
    # primes 2..10 are {2,3,5,7}; only 2 and 7 qualify
    assert [rep.p for rep in result.reports] == [2, 7]
    assert result.skipped_inadmissible == 2


def _default_sweep_instances():
    """Every admissible (claim, p, r) of the seven default sweeps."""
    return [
        (fam.id, p, r)
        for fam in FAMILIES.values()
        for p in primes_in(2, fam.default_p_max)
        for r in sorted(set(fam.default_r_values))
        if admissible(fam.id, p, r)
    ]


def test_lhs_residue_matches_exact_value():
    instances = _default_sweep_instances() + [("thm1", 1013, -1), ("thm2", 1013, 1)]
    assert admissible("thm1", 1013, -1) and admissible("thm2", 1013, 1)
    for claim, p, r in instances:
        ctx = PadicContext(p, FAMILIES[claim].modulus_exponent + claims.LHS_GUARD_DIGITS)
        assert lhs_residue(claim, p, r, ctx) == ctx.reduce(lhs_value(claim, p, r)), (claim, p, r)


def test_lhs_residue_matches_exact_value_at_a_large_prime():
    ctx = PadicContext(2003, 7)
    assert ctx.reduce(lhs_value("thm1", 2003, -1)) == lhs_residue("thm1", 2003, -1, ctx)


def _verify_by_exact_sum(claim, p, r):
    """verify's fields as computed before the residue route, over the exact
    left side."""
    k = FAMILIES[claim].modulus_exponent
    ctx = PadicContext(p, k)
    lhs = lhs_value(claim, p, r)
    rhs = rhs_residue(claim, p, r, ctx)
    form = rhs_form(claim, p, r)
    witness = vp(lhs - rhs.value, p)
    if form.gamma_factors:
        witness = min(witness, k)
    return (
        claim, p, r, k, form.case_label, ctx.reduce(lhs).value, rhs.value,
        None if witness == math.inf else witness, witness >= k,
    )


def test_verify_matches_exact_formula_on_default_sweeps():
    for claim, p, r in _default_sweep_instances():
        if claim in ("thm2", "conj1") and p == 2:
            continue  # outside the Gamma evaluator on either route
        rep = verify(claim, p, r)
        got = (
            rep.claim, rep.p, rep.r, rep.modulus_exponent, rep.case_label,
            rep.lhs_residue, rep.rhs_residue, rep.witness_valuation, rep.passed,
        )
        assert got == _verify_by_exact_sum(claim, p, r)


def test_lhs_residue_rejects_non_unit_denominator():
    # thm1's shape (r/5)_k at p = 5, where the family is never admissible
    with pytest.raises(NonIntegralInputError):
        lhs_residue("thm1", 5, 1, PadicContext(5, 7))


def test_verify_exact_fallback_when_residue_difference_vanishes(monkeypatch):
    # with no guard digits the thm1 difference at (2, 1), of valuation 6,
    # is 0 mod 2^4, so verify falls back to the exact sum
    calls = []
    monkeypatch.setattr(claims, "LHS_GUARD_DIGITS", 0)
    monkeypatch.setattr(
        claims, "lhs_value", lambda *args: calls.append(args) or lhs_value(*args)
    )
    rep = verify("thm1", 2, 1)
    assert rep.witness_valuation == 6 and rep.passed
    assert calls == [("thm1", 2, 1)]
    assert rep.lhs_residue == PadicContext(2, 4).reduce(lhs_value("thm1", 2, 1)).value


def test_the_cut_sum_is_the_full_sum_mod_p_to_the_e():
    # every term past n0 holds p^e, so the first n0 + 1 terms, as _cut and
    # lhs_residue at p^e take them, give the sum of all p terms mod p^e
    cut = 0
    for fam in FAMILIES.values():
        for r in fam.default_r_values:
            series = claims._plan(fam, r)[0]
            for p in primes_in(5, 500):
                if not admissible(fam.id, p, r):
                    continue
                n_terms, e = hyperkernel._cut(series, p)
                if e == math.inf:
                    assert n_terms == p, (fam.id, p, r)
                    continue
                assert n_terms < p and e >= fam.modulus_exponent, (fam.id, p, r)
                full = hyperkernel._residue(series, p, p, p ** e)
                assert lhs_residue(fam.id, p, r, PadicContext(p, e)).value == full, (fam.id, p, r)
                cut += 1
    assert cut > 1000


def _spy_residue(monkeypatch):
    """Record each left-side sum verify takes as (n_terms, modulus, value)."""
    calls = []

    def spy(plan, n_terms, p, modulus):
        value = hyperkernel._residue(plan, n_terms, p, modulus)
        calls.append((n_terms, modulus, value))
        return value

    monkeypatch.setattr(claims, "_residue", spy)
    monkeypatch.setattr(claims, "lhs_value", lambda *args: pytest.fail(f"exact left side for {args}"))
    return calls


def test_verify_thm1_sums_the_full_range_only_past_the_cut(monkeypatch):
    # at (61, -7) the witness is 5 = e: the 39 terms up to n0 = 38 read 0 mod
    # 61^5, and one full-range sum at 61^(4 + 3) gives the exact valuation
    calls = _spy_residue(monkeypatch)
    rep = verify("thm1", 61, -7)
    assert rep.witness_valuation == 5 and rep.passed
    assert [(n, m) for n, m, _ in calls] == [(39, 61 ** 5), (61, 61 ** 7)]
    assert calls[0][2] == 0 and vp(calls[1][2], 61) == 5


@pytest.mark.parametrize("p, r", [(2, 1), (3, -1), (7, -9)])
def test_verify_thm1_sums_once_where_nothing_is_cut(monkeypatch, p, r):
    # n0 + 1 = p: the one sum is the full range at p^(4 + 3)
    calls = _spy_residue(monkeypatch)
    assert verify("thm1", p, r).passed
    assert [(n, m) for n, m, _ in calls] == [(p, p ** 7)]


def test_verify_does_not_cut_an_entry_whose_power_is_below_k(monkeypatch):
    # with e = 3 < k = 4 the cut sum is known mod p^3 only: verify sums all
    # p terms, and its report carries the left side mod p^4
    thm1 = FAMILIES["thm1"]
    a, _, slope, const = thm1.series(-7)
    monkeypatch.setitem(FAMILIES, "thm1", thm1._replace(series=lambda r: (a, 3, slope, const)))
    rep = verify("thm1", 61, -7)
    assert rep.lhs_residue == PadicContext(61, 4).reduce(lhs_value("thm1", 61, -7)).value
    assert not rep.passed


def test_verify_builds_the_closed_form_once(monkeypatch):
    # the Gamma factors and the finite sum are read from the family entry
    # once per (entry, r), into its plan: at most once for a verify, and
    # not again for the next prime or the next verify of the same r
    instances = [
        ("lr3", [59, 61], None), ("d2", [7, 11], None), ("a1", [13, 11], None),
        ("thm1", [13, 43], -1), ("thm2", [5, 11], -2), ("conj1", [7, 13], -1),
        ("conj3", [7, 13], 1),
    ]
    for claim, ps, r in instances:
        calls = []
        fam = FAMILIES[claim]
        spied = fam._replace(
            gammas=lambda r, fam=fam: calls.append("gammas") or fam.gammas(r),
            finite_sum=lambda r, fam=fam: calls.append("finite_sum") or fam.finite_sum(r),
        )
        monkeypatch.setitem(FAMILIES, claim, spied)
        for p in ps * 2:
            assert verify(claim, p, r).passed, (claim, p)
            assert sorted(calls) == ["finite_sum", "gammas"], (claim, p, calls)
    # the hand-verified instance is still refused
    with pytest.raises(UnsupportedInstanceError):
        verify("thm2", 2, 1)


def test_thm1_sweep_never_takes_the_exact_fallback(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"exact left side computed for {args}")

    monkeypatch.setattr(claims, "lhs_value", refuse)
    result = scan("thm1", 200)
    assert result.reports and result.all_passed
    assert max(rep.witness_valuation for rep in result.reports) == 6


def test_pair_valuation_reads_numerators_and_denominator(rng):
    from conftest import random_rational

    u = CycElement(5, [Fraction(1, 7), Fraction(49), 0, Fraction(14, 3)])
    assert claims._valuation(*u.as_integer_ratio(), 7) == -1
    assert claims._valuation(*(u * 49).as_integer_ratio(), 7) == 1
    assert claims._valuation(*CycElement.zero(4).as_integer_ratio(), 7) == math.inf
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        order = rng.choice([1, 4, 5])
        coeffs = [random_rational(rng, 60, 30) for _ in range(rng.randint(0, 6))]
        u = CycElement(order, coeffs)
        want = min((vp(c, p) for c in u.coeffs if c), default=math.inf)
        assert claims._valuation(*u.as_integer_ratio(), p) == want
    # an int numerator, and representatives that share a power of p
    assert claims._valuation(0, 5, 7) == math.inf
    assert claims._valuation(-14, 49, 7) == claims._valuation(-2 * 7 ** 3, 7 ** 4, 7) == -1
    assert claims._valuation((7 ** 3, 0, 7 ** 2), 7 ** 4, 7) == -2


def test_a_tuple_numerator_fails_a_rational_side_without_witness():
    # the series-reduction step needs the transformed series as a rational:
    # (1 + i)/2 is not, while (3 + 0i)/2 is, given as a numerator tuple
    assert claims._difference_valuation(((3, 0), 2), (3, 2), 7, 4) == math.inf
    assert claims._difference_valuation(((1, 1), 2), (3, 2), 7, 4) is None
    chain = claims.ProofChain("thm1", 7, 1)
    claims._transformation_steps(chain, "Q(i)", True, ((1, 1), 2))
    assert [(s.name, s.witness_valuation, s.passed) for s in chain.steps] == [
        ("transformation-instance", None, True), ("series-reduction", None, False),
    ]
    assert chain.status == "fail"


def test_difference_valuation_matches_the_exact_cross_product(rng):
    # u - v at valuations from -3 up and exactly 0, on unreduced
    # representatives with negative dens and powers of p on both sides; in
    # many draws the residue mod p^M is 0 and the exact product is formed
    checked = {"residue": 0, "exact": 0}
    for _ in range(400):
        p, k = rng.choice([3, 5, 7]), rng.randint(1, 5)
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        j = rng.choice([None, *range(-3, 12)])
        y = x
        if j is not None:
            y += Fraction(p) ** j * Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), 1 + p * rng.randint(0, 9))
        pairs = []
        for w in (x, y):
            f = rng.choice([-1, 1]) * rng.randint(1, 9) * p ** rng.randint(0, 3)
            pairs.append((w.numerator * f, w.denominator * f))
        u, v = pairs
        if rng.random() < 0.3:
            u = ((u[0], 0), u[1])  # a rational numerator tuple reads as an int
        got = claims._difference_valuation(u, v, p, k)
        assert got == vp(x - y, p), (u, v, p, k)
        checked["exact" if got >= k + 2 else "residue"] += 1
    assert min(checked.values()) > 100


def test_non_integral_closed_form_raises(monkeypatch):
    # an explicit raise, not an assert: under python -O the residue would
    # otherwise be assembled from a float p ** v.  A coefficient 1/7, and a
    # coefficient 7 times a finite sum 2/49, are not 7-integral
    lr3 = FAMILIES["lr3"]
    for coefficient, finite_sum in [(Fraction(1, 7), Fraction(1)), (Fraction(7), Fraction(2, 49))]:
        cases = {key: (lambda p, r, c=coefficient: c, label) for key, (_, label) in lr3.cases.items()}
        entry = lr3._replace(cases=cases, finite_sum=lambda r, s=finite_sum: s)
        monkeypatch.setitem(FAMILIES, "lr3", entry)
        for route in (rhs_residue, rhs_residue_direct):
            with pytest.raises(RuntimeError, match="not p-integral"):
                route("lr3", 7, None, PadicContext(7, 3))


def test_congruence_on_a_missing_difference_fails_without_witness():
    chain = claims.ProofChain("thm1", 7, 1)
    chain.congruence("side", "a side that must be rational is not", 2, None)
    assert chain.steps == [
        claims.ChainStep("side", "a side that must be rational is not", 2, None, False)
    ]
    assert chain.status == "fail" and not chain.passed


def test_proof_chain_thm2_fails_on_a_perturbed_tail_sum(monkeypatch):
    # the chain reads the finite sum from thm2's family entry, as verify
    # does, so both see the perturbation
    thm2 = FAMILIES["thm2"]
    perturbed = thm2._replace(finite_sum=lambda r: thm2.finite_sum(r) + Fraction(1, 3))
    monkeypatch.setitem(FAMILIES, "thm2", perturbed)
    chain = proof_chain_thm2(11, -2)
    assert chain.status == "fail" and not chain.passed
    assert [step.name for step in chain.steps if not step.passed] == [
        "remainder-block", "assembly",
    ]
    assert not verify("thm2", 11, -2).passed


@pytest.mark.parametrize("p, r", [(13, -1), (199, -4), (401, 1)])
def test_proof_chain_thm2_forms_each_rising_factorial_once(monkeypatch, p, r):
    # every (argument, length) the chain and its identity sides ask for;
    # the sides and the paired extraction form theirs on numerators x over den
    seen = []

    def spy(a, n):
        seen.append((a, n))
        return pochhammer(a, n)

    def raw_spy(x, den, n, mul=None):
        order = {2: 4, 4: 5}.get(len(x)) if type(x) is tuple else None
        seen.append((CycElement._make(order, x, den) if order else Fraction(x, den), n))
        return rising(x, den, n, mul)

    monkeypatch.setattr(claims, "pochhammer", spy)
    monkeypatch.setattr(claims, "rising", raw_spy)
    monkeypatch.setattr(hyperkernel, "rising", raw_spy)
    assert proof_chain_thm2(p, r).passed
    assert len(seen) == len(set(seen)) > 0


@pytest.mark.parametrize("p, r", [(11, -2), (13, -1), (199, -4)])
def test_proof_chain_thm2_assembles_the_family_coefficient(monkeypatch, p, r):
    # the assembly step reads thm2's coefficient from its family entry: a
    # doubled coefficient must pull the chain's own witness below p^5
    thm2 = FAMILIES["thm2"]
    (coefficient, label), = thm2.cases.values()
    doubled = {0: (lambda p, r: 2 * coefficient(p, r), label)}
    monkeypatch.setitem(FAMILIES, "thm2", thm2._replace(cases=doubled))
    assembly = proof_chain_thm2(p, r).steps[-1]
    assert assembly.name == "assembly" and not assembly.passed
    assert assembly.witness_valuation < 5


def test_proof_chain_thm1_tail_reads_the_family_series(monkeypatch):
    # the tail step takes the weight and the power from thm1's family entry
    thm1 = FAMILIES["thm1"]
    a, power, slope, const = thm1.series(-3)
    monkeypatch.setitem(
        FAMILIES, "thm1", thm1._replace(series=lambda r: (a, power - 1, slope, const))
    )
    tail = next(s for s in proof_chain_thm1(409, -3).steps if s.name == "tail-vanishing")
    assert tail.modulus_exponent == power - 1
    assert tail.detail.endswith(f"mod p^{power - 1} in full")


def _near_2000():
    """A few admissible (claim, p, r) of thm1, thm2 and conj3 near p = 2000."""
    out = []
    for claim in ("thm1", "thm2", "conj3"):
        rs = FAMILIES[claim].default_r_values
        out += [(claim, p, r) for p in primes_in(1990, 2030) for r in rs if admissible(claim, p, r)][:3]
    return out


def test_verify_residues_match_the_exact_value_and_the_full_precision_right_side():
    # verify reads both sides from the per-(entry, r) plan; its residues must
    # be those of the exact left side and of every Gamma factor at p^k
    grid = [
        (fam.id, p, r)
        for fam in FAMILIES.values()
        for r in fam.default_r_values
        for p in primes_in(2, 300)
        if admissible(fam.id, p, r) and p not in fam.hand_verified
    ]
    near = _near_2000()
    assert len(near) == 9 and len(grid) > 700
    for claim, p, r in grid + near:
        rep = verify(claim, p, r)
        ctx = PadicContext(p, FAMILIES[claim].modulus_exponent)
        assert rep.lhs_residue == ctx.reduce(lhs_value(claim, p, r)).value, (claim, p, r)
        assert rep.rhs_residue == rhs_residue_direct(claim, p, r).value, (claim, p, r)


@pytest.mark.parametrize("field", ["series", "gammas", "cases"])
def test_a_replaced_entry_never_reads_a_stale_plan(monkeypatch, field):
    # the plan is keyed on the entry object: an entry replaced after a
    # verify of the same (claim, r) gets its own plan, and the report moves
    claim, p, r = "thm2", 11, -2
    thm2 = FAMILIES[claim]
    a, power, slope, const = thm2.series(r)
    (coefficient, label), = thm2.cases.values()
    replacement = {
        "series": lambda r: (a, power, slope, const + 1),
        "gammas": lambda r: thm2.gammas(r) + ((Fraction(1, 2), 1),),
        "cases": {0: (lambda p, r: 2 * coefficient(p, r), label)},
    }[field]
    before = verify(claim, p, r)
    assert before.passed
    monkeypatch.setitem(FAMILIES, claim, thm2._replace(**{field: replacement}))
    after = verify(claim, p, r)
    moved = after.lhs_residue if field == "series" else after.rhs_residue
    assert moved != (before.lhs_residue if field == "series" else before.rhs_residue)
    assert not after.passed
    monkeypatch.undo()
    assert verify(claim, p, r)._replace(elapsed_ms=0) == before._replace(elapsed_ms=0)


def test_difference_valuation_reads_a_residue_and_forms_the_exact_pair_at_zero(rng):
    # v given by its numerator mod p^M, M = v_p(b) + v_p(d) + k + 2, and a
    # thunk for its exact pair: the thunk runs only when the residue is 0
    counts = {"residue": 0, "exact": 0}
    for _ in range(300):
        p, k = rng.choice([3, 5, 7]), rng.randint(1, 5)
        x = Fraction(rng.randint(-10**5, 10**5), rng.choice([1, 2, 4, 11]))
        j = rng.choice([None, *range(0, 10)])
        y = x if j is None else x + p ** j * Fraction(rng.choice([-1, 1]), rng.choice([1, 2, 8]))
        b = x.denominator * p ** rng.randint(0, 2)
        u = (x.numerator * (b // x.denominator), b)
        d = y.denominator * p ** rng.randint(0, 2)
        c = y.numerator * (d // y.denominator)
        m = p ** (vp(b, p) + vp(d, p) + k + 2)
        calls = []
        got = claims._difference_valuation(u, (c % m, d), p, k, lambda: calls.append(1) or (c, d))
        assert got == vp(x - y, p), (u, c, d, p, k)
        assert bool(calls) == ((u[0] * d - c * b) % m == 0)
        counts["exact" if calls else "residue"] += 1
    assert min(counts.values()) > 50, counts


@pytest.mark.parametrize("claim, p, r", [("thm1", 13, -1), ("thm2", 5, 1), ("thm2", 7, -1)])
def test_proof_chains_build_no_series_spec(monkeypatch, claim, p, r):
    # at these instances series-reduction's residue reads 0, so the chain
    # forms the exact pair too: by _sum on the claim's cached plan, with no
    # SeriesSpec.  The plan is warmed first, since a cold thm2 plan forms
    # its finite sum through hypergeometric_sum
    claims._plan(FAMILIES[claim], r)
    specs, exact = [], []
    monkeypatch.setattr(hyperkernel.SeriesSpec, "_check", lambda self: specs.append(self))

    def spy(plan, n_terms):
        exact.append(plan is claims._plan(FAMILIES[claim], r)[0])
        return hyperkernel._sum(plan, n_terms)

    monkeypatch.setattr(claims, "_sum", spy)
    chain = (proof_chain_thm1 if claim == "thm1" else proof_chain_thm2)(p, r)
    assert chain.passed and exact == [True] and specs == []
