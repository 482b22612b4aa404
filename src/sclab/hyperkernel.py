"""Exact truncated hypergeometric sums over Q, Q(i) or Q(zeta_5), and the
three transformation/summation identities the claim checkers replay.

A series here is a finite weighted sum

    sum_{k=0}^{N-1}  (m*k + r) * prod_i (a_i)_k * z^k
                     ---------------------------------
                        k!^e  *  prod_j (b_j)_k

with all scalars in Q or in one cyclotomic field, each parameter an
integral numerator over an int denominator.  ``_horner_plan`` describes a
series once, apart from its length: its rational factor pairs, its
irrational ones multiplied into polynomials in k (a conjugate pair's
product drops back to ints), its constants, its weight, its cut at a
terminating upper and its first pole.  Two routes read a plan.  ``_sum`` sums it exactly,
folding runs of ``rationals._FOLD_MAX`` steps and merging neighbouring
runs pairwise (binary splitting); ``_residue_sum`` sums a rational plan
mod p^K by Horner from the last term back, on streams of step factors
that ``_factors`` builds in C.  ``eval_truncated`` and
``eval_truncated_residue`` run them on a ``SeriesSpec``'s plan.

The identity checks never divide.  Each lifts its parameters once to
numerators over one shared denominator, so 1 + a - x is an integer sum,
and takes each series from ``_sum`` as a pair (total, den) and each
rising factorial from ``rationals.rising`` as its numerator over den^n.
A check returns True only when the cross-products of its sides,
lhs_num * rhs_den and rhs_num * lhs_den, are equal ints or numerator
tuples, which is equality in the field: a tuple holds coordinates in the
power basis.

Every series of the identity checks comes from one of three builders:
``_well_poised`` (the terminating very-well-poised seven-slot series, the
left side of both transformations), ``_four_slot`` (Whipple's four-slot
series) and ``_karlsson_minton_sum``.  The claim chains read their pairs,
and the thm2 chain divides one by its field denominator through ``_value``.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat

from .cyclotomic import _PRODUCT, CycElement, _reduce
from .padic import NonIntegralInputError, PadicContext, Residue
from .rationals import _FOLD_MAX, as_rational, is_prime, rising
from .records import FrozenRecord, Record

Scalar = int | Fraction | CycElement


class PoleInRangeError(ArithmeticError):
    """A lower-parameter rising factorial vanishes inside the truncation."""


class IdentityPreconditionError(ValueError):
    """The identity's side conditions fail; the check is not attempted."""


def _split(values: Sequence[Scalar]) -> tuple[list, int]:
    """Each value as (numerator, denominator), with the field order of the
    irrational values (0 when there are none): a rational value, even a
    field element, gets an int numerator, an irrational one a numerator
    tuple.  Floats, and values of two orders, are refused."""
    if len({v.order for v in values if isinstance(v, CycElement)}) > 1:
        raise ValueError("mixed cyclotomic orders in one series")
    pairs, order = [], 0
    for v in values:
        if not isinstance(v, CycElement):
            v = v if isinstance(v, int) else as_rational(v)
            pairs.append((v.numerator, v.denominator))
        elif any(v.nums[1:]):
            pairs.append((v.nums, v.den))
            order = v.order
        else:
            pairs.append((v.nums[0], v.den))
    return pairs, order


class SeriesSpec(FrozenRecord):
    """A truncated weighted hypergeometric sum."""

    __slots__ = (
        "upper", "lower", "argument", "truncation", "weight", "factorial_power",
    )
    _defaults = {
        "argument": 1,
        "truncation": 1,
        "weight": (Fraction(0), Fraction(1)),
        "factorial_power": 1,
    }

    def _check(self) -> None:
        for name in ("truncation", "factorial_power"):
            value = getattr(self, name)
            if type(value) is not int:
                raise TypeError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name.replace('_', ' ')} must be nonnegative")


def _times(u, v, mul):
    """u * v for numerators that are ints or numerator tuples, ``mul`` being
    the order's tuple product.  A product whose non-constant coordinates
    are all zero becomes an int, as that of a conjugate pair of parameters
    does, so the products after it are int products again."""
    if type(u) is int:
        if type(v) is int:
            return u * v
        return tuple([u * c for c in v]) if u else 0
    if type(v) is int:
        return tuple([c * v for c in u]) if v else 0
    return _flat(mul(u, v))


def _plus(u, v):
    """u + v for numerators that are ints or numerator tuples, flattened as
    in ``_times``."""
    if type(u) is int:
        if type(v) is int:
            return u + v
        return (v[0] + u, *v[1:])
    if type(v) is int:
        return (u[0] + v, *u[1:])
    return _flat(tuple([a + b for a, b in zip(u, v)]))


def _minus(u, v):
    """u - v for numerators that are ints or numerator tuples."""
    if type(u) is int and type(v) is int:
        return u - v
    return _plus(u, -v if type(v) is int else tuple([-c for c in v]))


def _flat(u):
    """A numerator tuple with zero non-constant coordinates as an int."""
    return u if type(u) is int or any(u[1:]) else u[0]


def _poly(factors, mul):
    """prod (an + k*ad) over the factors as a polynomial in k for ``_at``:
    its coefficients, highest degree first, as a list of ints when every
    one is rational, else as a tuple of such lists, one per coordinate."""
    coeffs = [1]
    for an, ad in factors:
        # coefficient j of c(k) * (ad*k + an) is c_(j-1) ad + c_j an; a
        # slope 0 leaves the degree, and drops the new leading zero
        coeffs = [
            _plus(_times(u, ad, mul), _times(v, an, mul)) for u, v in zip([*coeffs, 0], [0, *coeffs])
        ][0 if ad else 1 :]
    if all(type(c) is int for c in coeffs):
        return coeffs
    width = len(next(c for c in coeffs if type(c) is tuple))
    rows = [c if type(c) is tuple else (c,) + (0,) * (width - 1) for c in coeffs]
    return tuple(map(list, zip(*rows)))


def _at(poly, k):
    """A ``_poly`` at k by Horner, as an int or a flattened numerator tuple."""
    if type(poly) is tuple:
        return _flat(tuple([_at(c, k) for c in poly]))
    v = 0
    for c in poly:
        v = v * k + c
    return v


def _horner_plan(ups, lows, z=(1, 1), e=1, weight=((0, 1), (1, 1)), mul=None, tally=False) -> tuple:
    """A series but its length: the one description that ``_sum`` and
    ``_residue_sum`` read.  Each parameter, the argument z and the weight's
    m and r are (numerator, denominator) pairs, each ad > 0, so term k+1 =
    term k * num_k / den_k with num_k = num_const * prod (an + k*ad) over
    the rational uppers and den_k = den_const * (k+1)^e * prod (bn + k*bd)
    over the rational lowers, both integral.

    The plan is (stop, pole, ups, lows, e, num_const, den_const, w_step,
    w_start, w_den, mul, up_poly, low_poly, tallies).  stop is the first k
    with num_k = 0 (z = 0 or a terminating upper): the cut, past which
    every term is zero.  pole is the first k with a rational lower factor
    bn + k*bd = 0: a sum of more than pole + 1 terms meets it.  Each is
    infinite when there is none.  The weight m*k + r is (w_step*k +
    w_start) / w_den.  With a tuple product ``mul``, the irrational upper
    factors, z's numerator among them with slope 0, and the lower ones are
    each multiplied once into a polynomial in k (``_poly``); an irrational
    factor is never 0.  With ``tally``, tallies holds each side's rational
    pairs as a tally of equal pairs, ((an, ad), m), the lower side with the
    e pairs (1, 1) of k!^e: the residue route's factor streams, formed once
    for a plan that serves many moduli, and never on the exact route."""
    z_num, z_den = z
    (w_slope, w_slope_den), (w_const, w_const_den) = weight
    num_const, den_const, up_poly, low_poly, tallies = 1, z_den, None, None, None
    if mul is not None:
        odd_ups = [(an, ad) for an, ad in ups if type(an) is not int]
        odd_lows = [(bn, bd) for bn, bd in lows if type(bn) is not int]
        up_poly = _poly(odd_ups if type(z_num) is int else [*odd_ups, (z_num, 0)], mul)
        low_poly = _poly(odd_lows, mul)
        num_const, den_const = math.prod(bd for _, bd in odd_lows), z_den * math.prod(ad for _, ad in odd_ups)
        ups = [(an, ad) for an, ad in ups if type(an) is int]
        lows = [(bn, bd) for bn, bd in lows if type(bn) is int]
        z_num = z_num if type(z_num) is int else 1
    # one plain loop per side, no generators: an identity check's series
    # has a few terms, and its plan must cost no more than the loop it saves
    stop, pole = math.inf if z_num else 0, math.inf
    for bn, bd in lows:
        num_const *= bd
        if bn <= 0 and not bn % bd and -bn // bd < pole:
            pole = -bn // bd
    for an, ad in ups:
        den_const *= ad
        if an <= 0 and not an % ad and -an // ad < stop:
            stop = -an // ad
    if tally:
        steps = [(1, 1)] * e + list(lows)
        tallies = tuple({u: ups.count(u) for u in ups}.items()), tuple({s: steps.count(s) for s in steps}.items())
    return (
        stop, pole, ups, lows, e, z_num * num_const, den_const, w_slope * w_const_den,
        w_const * w_slope_den, w_slope_den * w_const_den, mul, up_poly, low_poly, tallies,
    )


def _sum(plan, n_terms) -> tuple:
    """The truncated sum of a ``_horner_plan`` as total / den, with total
    and den integral: ints when every parameter is rational, and otherwise
    each an int or a numerator tuple over denominator 1 in the parameters'
    field.

    The running term and the running sum share one denominator, the
    weight's times the product of the den_k so far.  One loop forms num_k
    and den_k from the rational factors as ints, up to the plan's stop; in
    a field plan it evaluates both polynomials by Horner on int
    coordinates.  Polynomials with rational coefficients, as of conjugate
    pairs, keep every value an int; otherwise a step makes three field
    products (term, total, den).  The loop folds runs of _FOLD_MAX steps,
    whose (term, den, total) then merge pairwise, level by level.  Mod p^K
    the same pair comes from ``_residue_sum``.  Raises PoleInRangeError
    when a lower rising factorial vanishes inside the truncation.
    """
    stop, pole, ups, lows, e, num_const, den_const, w_step, w, den, mul, up_poly, low_poly, _ = plan
    if pole < n_terms - 1:
        raise PoleInRangeError(f"lower parameter {-pole} vanishes at shift {pole}")
    total, term = w if n_terms else 0, 1
    runs, end = [], _FOLD_MAX - 1
    for k in range(min(n_terms - 1, stop)):
        num = num_const
        for an, ad in ups:
            num *= an + k * ad
        step = den_const * (k + 1) ** e
        for bn, bd in lows:
            step *= bn + k * bd
        # term k+1 and its weight, and the sum moved onto its denominator den * step
        w += w_step
        if mul is None:
            term *= num
            total = total * step + w * term
            den *= step
        else:
            term = _times(term, _times(num, _at(up_poly, k), mul), mul)
            step = _times(step, _at(low_poly, k), mul)
            total = _plus(_times(total, step, mul), _times(w, term, mul))
            den = _times(den, step, mul)
        if k == end:  # an exact run ends, and the next starts empty
            runs.append((term, den, total))
            term, den, total, end = 1, 1, 0, end + _FOLD_MAX
    if runs:
        # neighbouring runs (P, Q, T) merge by the fold's update: P1 P2, Q1 Q2, T1 Q2 + P1 T2
        runs.append((term, den, total))
        while len(runs) > 1:
            runs = [
                (_times(p1, p2, mul), _times(q1, q2, mul), _plus(_times(t1, q2, mul), _times(p1, t2, mul)))
                for (p1, q1, t1), (p2, q2, t2) in zip(runs[::2], runs[1::2])
            ] + runs[len(runs) & ~1 :]
        _, den, total = runs[0]
    return total, den


def _factors(tally, const, n):
    """const * prod (an + k*ad)^m over a tally's ((an, ad), m), ad > 0, for
    k = n-1 down to 0, as an iterator run in C: one descending range per
    distinct pair, raised to its multiplicity by ``map(pow)``."""
    out = repeat(const, n) if const != 1 or not tally else None
    for (an, ad), m in tally:
        factor = range(an + (n - 1) * ad, an - ad, -ad)
        factor = factor if m == 1 else map(pow, factor, repeat(m))
        out = factor if out is None else map(operator.mul, out, factor)
    return out


def _residue_sum(plan, n_terms, modulus) -> tuple:
    """``_sum``'s (total, den) mod ``modulus`` for a rational ``_horner_plan``
    formed with ``tally``, by Horner from the last term back: from A = w_n
    and B = 1, each k from n-1 down to 0 sets B = B den_k and A = w_k B +
    num_k A.  n is where ``_sum`` stops, the plan's stop if it comes first,
    else n_terms - 1."""
    stop, pole, _, _, _, num_const, den_const, w_step, w_start, w_den, _, _, _, (up_tally, low_tally) = plan
    if pole < n_terms - 1:
        raise PoleInRangeError(f"lower parameter {-pole} vanishes at shift {pole}")
    n = min(max(n_terms - 1, 0), stop)
    nums = _factors(up_tally, num_const, n)
    steps = _factors(low_tally, den_const, n)
    total, den = w_step * n + w_start if n_terms else 0, 1
    weights = range(total - w_step, w_start - w_step, -w_step) if w_step else repeat(w_start, n)
    for w, num, step in zip(weights, nums, steps):
        den = den * step % modulus
        total = (w * den + num * total) % modulus
    return total, den * w_den % modulus


def _residue(plan, n_terms, p: int, modulus: int) -> int:
    """``_residue_sum``'s total over its den mod ``modulus``, a power of p:
    exact when every den factor of a nonzero term, and the weight's, is
    prime to p; NonIntegralInputError is raised otherwise."""
    total, den = _residue_sum(plan, n_terms, modulus)
    if den % p == 0:
        raise NonIntegralInputError(f"a term's denominator or the weight's is divisible by {p}")
    return total * pow(den, -1, modulus) % modulus


def _value(total, den, order: int) -> Scalar:
    """total / den as a Fraction, or as a CycElement of a nonzero order;
    one division, which is where the field element is built."""
    if not order:
        return Fraction(total, den)
    if type(den) is tuple:
        if type(total) is tuple:
            total = CycElement._make(order, total, 1)
        return total / CycElement._make(order, den, 1)
    return CycElement._make(order, total if type(total) is tuple else _reduce(order, [total]), den)


def _spec_plan(spec: SeriesSpec, tally: bool = False) -> tuple:
    """The spec's ``_horner_plan``, its values split once by ``_split``."""
    pairs, order = _split([*spec.upper, *spec.lower, spec.argument])
    weight = [(w.numerator, w.denominator) for w in map(as_rational, spec.weight)]
    n_up = len(spec.upper)
    mul = _PRODUCT.get(order)
    return _horner_plan(pairs[:n_up], pairs[n_up:-1], pairs[-1], spec.factorial_power, weight, mul, tally)


def eval_truncated(spec: SeriesSpec) -> Scalar:
    """Exact value of the truncated sum; PoleInRangeError when a lower
    rising factorial vanishes anywhere inside the truncation range.

    The value is a Fraction, or a CycElement when any parameter is one.
    It costs one division, of ``_sum``'s pair."""
    total, den = _sum(_spec_plan(spec), spec.truncation)
    values = (*spec.upper, *spec.lower, spec.argument)
    return _value(total, den, next((v.order for v in values if isinstance(v, CycElement)), 0))


def eval_truncated_residue(spec: SeriesSpec, ctx: PadicContext) -> Residue:
    """Residue mod p^K of the truncated sum of a rational spec, in O(N)
    integer multiplies mod p^K, by ``_residue``: NonIntegralInputError
    when a denominator factor of a nonzero term, or the weight's, has p.
    """
    if any(isinstance(v, CycElement) for v in (*spec.upper, *spec.lower, spec.argument, *spec.weight)):
        raise TypeError("the residue route takes rational parameters only")
    return Residue(_residue(_spec_plan(spec, tally=True), spec.truncation, ctx.p, ctx.modulus), ctx)


def hypergeometric_sum(upper, lower, n_terms: int, argument: Scalar = 1) -> Scalar:
    """Plain (weightless) truncated series with a single k! factor."""
    spec = SeriesSpec(upper=tuple(upper), lower=tuple(lower), argument=argument, truncation=n_terms)
    return eval_truncated(spec)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def _lift(values: Sequence[Scalar]) -> tuple[list, int, int]:
    """(numerators, den, order): ``_split``'s numerators brought over one
    shared den, the lcm of its denominators."""
    pairs, order = _split(values)
    den = math.lcm(*(d for _, d in pairs))
    return [_times(v, den // d, None) for v, d in pairs], den, order


def _counts(*counts) -> None:
    """Refuse a series length that is not an int, a float or bool included."""
    if not all(type(c) is int for c in counts):
        raise TypeError(f"n and m must be ints (floats are not exact), got {counts}")


def _product(pairs, mul) -> tuple:
    """The product of (num, den) pairs, as one pair."""
    num, den = 1, 1
    for u, v in pairs:
        num, den = _times(num, u, mul), _times(den, v, mul)
    return num, den


def _same(lhs, rhs, mul) -> bool:
    """lhs == rhs for (num, den) pairs with nonzero dens, cross-multiplied;
    a tuple from ``rising`` may be rational, so both products are flattened."""
    return _flat(_times(lhs[0], rhs[1], mul)) == _flat(_times(rhs[0], lhs[1], mul))


def _well_poised(a, params, n: int, den: int, mul) -> tuple:
    """The terminating very-well-poised series of seven parameter slots, for
    numerators over den: upper a, 1 + a/2, each param and -n; lower a/2,
    1 + a - x for each param x, and 1 + a + n."""
    one_a = _plus(a, den)
    ups = [(a, den), (_plus(a, 2 * den), 2 * den), *[(x, den) for x in params], (-n, 1)]
    lows = [(a, 2 * den), *[(_minus(one_a, x), den) for x in params], (_plus(one_a, n * den), den)]
    return _sum(_horner_plan(ups, lows, mul=mul), n + 1)


def _four_slot(a, b, c, d, e, n: int, den: int, mul) -> tuple:
    """Whipple's terminating four-slot series, for numerators over den:
    upper 1 + a - b - c, d, e, -n; lower d + e - a - n, 1 + a - b, 1 + a - c."""
    one_a = _plus(a, den)
    ups = [_minus(_minus(one_a, b), c), d, e]
    lows = [_minus(_plus(d, e), _plus(a, n * den)), _minus(one_a, b), _minus(one_a, c)]
    plan = _horner_plan([*[(x, den) for x in ups], (-n, 1)], [(x, den) for x in lows], mul=mul)
    return _sum(plan, n + 1)


def _whipple_parts(a, b, c, d, e, n: int) -> tuple:
    """Whipple's reduction of the well-poised series at params (b, c, d, e)
    to his four-slot series with the prefactor (1 + a)_n (1 + a - d - e)_n
    / ((1 + a - d)_n (1 + a - e)_n), as pairs: (seven-slot series,
    prefactor, four-slot series, order)."""
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    (a, b, c, d, e), den, order = _lift([a, b, c, d, e])
    _counts(n)
    mul = _PRODUCT.get(order)
    lhs = _well_poised(a, (b, c, d, e), n, den, mul)
    one_a = _plus(a, den)
    # the den^n of the four rising factorials cancel
    top = _times(rising(one_a, den, n, mul), rising(_minus(_minus(one_a, d), e), den, n, mul), mul)
    bottom = _times(*(rising(_minus(one_a, x), den, n, mul) for x in (d, e)), mul)
    if bottom == 0:
        raise PoleInRangeError("prefactor denominator vanishes")
    return lhs, (top, bottom), _four_slot(a, b, c, d, e, n, den, mul), order


def check_whipple(a, b, c, d, e, n: int) -> bool:
    """Returns True iff both sides of ``_whipple_parts`` agree exactly."""
    lhs, prefactor, series, order = _whipple_parts(a, b, c, d, e, n)
    mul = _PRODUCT.get(order)
    return _same(lhs, _product((prefactor, series), mul), mul)


def _karlsson_minton_sum(n: int, bs, ms) -> tuple:
    """The terminating series with integrally shifted parameter pairs:
    upper -n and b_i + m_i, lower b_i, unit argument, as (total, den,
    order).

    Karlsson-Minton says it vanishes for nonnegative integers m_i with
    n > sum(m_i); violating that side condition raises
    IdentityPreconditionError because the sum need not vanish there.
    """
    if len(bs) != len(ms):
        raise ValueError("parameter lists must have equal length")
    if any(int(m) != m or m < 0 for m in ms):
        raise IdentityPreconditionError("shifts must be nonnegative integers")
    if not (isinstance(n, int) and n > sum(ms)):
        raise IdentityPreconditionError(
            f"need integer n > sum of shifts; got n={n}, sum={sum(ms)}"
        )
    bs, den, order = _lift(bs)
    # an integral Fraction shift is an int one; a float one is refused
    ups = [(_plus(b, int(as_rational(m)) * den), den) for b, m in zip(bs, ms)]
    plan = _horner_plan([(-n, 1), *ups], [(b, den) for b in bs], mul=_PRODUCT.get(order))
    return (*_sum(plan, n + 1), order)


def check_karlsson_minton(n: int, bs, ms) -> bool:
    """Exact check of the Karlsson-Minton vanishing; see
    ``_karlsson_minton_sum`` for the side conditions."""
    return _karlsson_minton_sum(n, bs, ms)[0] == 0


def _d1_parts(t, a, b, c, n: int, m: int) -> tuple:
    """Both sides of the seven-to-four slot transformation used by the
    sixth-power claim chain: (seven-slot series, the tail's lower
    parameters x over den, the ratio's upper rising factorials over den^n,
    the product of its lower ones over den^(4n), linear factor, tail, den,
    order), the series and the linear factor as pairs.

    With s = a + b + c + 1 - m - t, the x are s - c, s - b, s - a; the
    ratio is (1 + t)_n prod (x + 1)_n, its upper factors in that order,
    over (1 + a)_n (1 + b)_n (1 + c)_n (s - t)_n; the well-poised series
    has params t - a, t - b, t - c and s + n."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative integers")
    (t, a, b, c), den, order = _lift([t, a, b, c])
    _counts(n, m)
    mul = _PRODUCT.get(order)
    s = _minus(_plus(_plus(_plus(a, b), c), (1 - m) * den), t)
    lows = (_minus(s, c), _minus(s, b), _minus(s, a))
    top, w = _minus(s, t), _plus(s, n * den)
    lhs = _well_poised(t, (_minus(t, a), _minus(t, b), _minus(t, c), w), n, den, mul)
    lower = 1
    for x in (_plus(a, den), _plus(b, den), _plus(c, den), top):
        lower = _times(lower, rising(x, den, n, mul), mul)
    uppers = tuple(rising(_plus(x, den), den, n, mul) for x in (t, *lows))
    linear = _product(((x, _plus(x, n * den)) for x in lows), mul)
    if lower == 0 or linear[1] == 0:
        raise PoleInRangeError("prefactor denominator vanishes")
    tail_ups = [(-m, 1), (-n, 1), (top, den), (w, den)]
    tail = _sum(_horner_plan(tail_ups, [(x, den) for x in lows], mul=mul), min(m, n) + 1)
    return lhs, lows, uppers, lower, linear, tail, den, order


def check_d1(t, a, b, c, n: int, m: int) -> bool:
    """Exact check of the seven-to-four slot transformation; the ratio's
    den^(4n) cancel."""
    lhs, _, uppers, lower, linear, tail, _, order = _d1_parts(t, a, b, c, n, m)
    mul = _PRODUCT.get(order)
    ratio = (functools.reduce(lambda u, v: _times(u, v, mul), uppers), lower)
    return _same(lhs, _product((ratio, linear, tail), mul), mul)


def conjugate_product_congruence(a, b, p: int, k: int, order: int) -> bool:
    """Check that the full conjugate-orbit product of shifted rising
    factorials collapses to a power of the plain one:

    * order 4: prod_{j<4} (a + b*i^j*p)_k is rational and congruent to
      (a)_k^4 mod p^4, with both two-factor halves congruent to (a)_k^2
      mod p^2;
    * order 5: the five-fold product is rational and congruent to (a)_k^5
      mod p^5.

    On numerators over the p-adic unit D^k, D being a's and b's shared
    denominator, a product of m factors is congruent to (a)_k^m mod p^m
    iff its numerator is an int N and p^m divides N - A^m, A being (a)_k's.

    Each congruence is an identity: with x = a + j and y = b*p, factor
    j's orbit multiplies to x^4 - y^4 (its halves to x^2 +- y^2) at order
    4 and to x^5 + y^5 at order 5.  So for p-adic integral a and b the
    check pins the exact arithmetic, not a conjecture; only a perturbed
    ``rising`` reaches its False paths (tests/test_identity_routes.py).
    """
    if order not in (4, 5):
        raise ValueError("order must be 4 or 5")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a = as_rational(a)
    b = as_rational(b)
    if a.denominator % p == 0 or b.denominator % p == 0:
        raise NonIntegralInputError(f"arguments must be {p}-adic integers")
    if k < 0:
        raise ValueError("pochhammer length must be nonnegative")
    (a, step), den, _ = _lift([a, b * p])
    mul = _PRODUCT[order]
    plain = rising(a, den, k)
    # zeta^j as an int where it is rational (+-1), else as a tuple
    roots = [_flat(tuple(_reduce(order, [0] * j + [1]))) for j in range(order)]
    factors = [rising(_plus(a, _times(step, r, mul)), den, k, mul) for r in roots]

    def congruent(elements) -> bool:
        value = _flat(functools.reduce(lambda u, v: _times(u, v, mul), elements))
        m = len(elements)
        return type(value) is int and (value - plain ** m) % p ** m == 0

    if order == 5:
        return congruent(factors)
    # the whole orbit, the shifts by +/- b*i*p, then those by +/- b*p
    return congruent(factors) and congruent(factors[1::2]) and congruent(factors[0::2])


# ---------------------------------------------------------------------------
# Seeded fuzzing
# ---------------------------------------------------------------------------

FUZZ_DENOMINATORS = (1, 2, 3, 5, 7)
FUZZ_MAX_N = 6  # the largest n (and m) a fuzzer draws


class IdentityFuzzResult(Record):
    __slots__ = ("name", "trials", "seed", "failures")
    _defaults = {"failures": None}

    def _check(self) -> None:
        if self.failures is None:
            self.failures = []

    @property
    def passed(self) -> bool:
        return not self.failures


def _trial_rng(seed: int, index: int) -> random.Random:
    # String seeding is stable across platforms and runs.  random is
    # imported here: only the fuzzers draw, and a cold start would pay for it.
    import random

    return random.Random(f"{seed}:{index}")


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.choice(FUZZ_DENOMINATORS))


def _fuzz(name, trials, seed, draw, check) -> IdentityFuzzResult:
    """Run ``check`` on one draw per trial.  A draw of None, or one whose
    check meets a pole, is skipped and resampled from the trial's stream;
    a failing draw is recorded as its argument tuple."""
    result = IdentityFuzzResult(name, trials, seed)
    for i in range(trials):
        rng = _trial_rng(seed, i)
        while True:
            args = draw(rng)
            if args is None:
                continue
            try:
                ok = check(*args)
            except (PoleInRangeError, ZeroDivisionError):
                continue
            break
        if not ok:
            result.failures.append(args)
    return result


def fuzz_whipple(trials: int = 200, seed: int = 0) -> IdentityFuzzResult:
    def draw(rng):
        params = tuple(_random_rational(rng) for _ in range(5))
        return (*params, rng.randint(0, FUZZ_MAX_N))

    return _fuzz("whipple", trials, seed, draw, check_whipple)


def fuzz_karlsson_minton(trials: int = 200, seed: int = 0) -> IdentityFuzzResult:
    def draw(rng):
        depth = rng.randint(1, 3)
        ms = tuple(rng.randint(0, 2) for _ in range(depth))
        if sum(ms) >= FUZZ_MAX_N:
            return None
        n = rng.randint(sum(ms) + 1, FUZZ_MAX_N)
        bs = tuple(_random_rational(rng) or Fraction(1, 2) for _ in range(depth))
        return n, bs, ms

    return _fuzz("km", trials, seed, draw, check_karlsson_minton)


def fuzz_d1(trials: int = 200, seed: int = 0) -> IdentityFuzzResult:
    def draw(rng):
        params = tuple(_random_rational(rng) for _ in range(4))
        return (*params, rng.randint(0, FUZZ_MAX_N), rng.randint(0, FUZZ_MAX_N))

    return _fuzz("d1", trials, seed, draw, check_d1)


FUZZERS = {
    "whipple": fuzz_whipple,
    "km": fuzz_karlsson_minton,
    "d1": fuzz_d1,
}
