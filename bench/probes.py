"""Which sclab functions the traced run wraps, the counters it keeps, and
how span summaries become the per-layer metrics.

Each probe names a public function or method by its defining module; the
tracer rebinds it in every ``sclab`` module and class that binds the same
object (``sclab.claims.gamma_p`` as well as ``sclab.pgamma.gamma_p``,
``__rmul__`` as well as ``__mul__``).  ``.ms`` metrics are self time: a
span's duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import inspect
import sys
from fractions import Fraction

from spans import Tracer


def _bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return 0


def _observe_vp(tracer: Tracer, args, kwargs, result) -> None:
    tracer.maximum("padic.vp.max_bits", _bits(args[0]))


def _observe_gamma(tracer: Tracer, args, kwargs, result) -> None:
    # Units j < m with p not dividing j in the defining product at the
    # representative m of the argument, whether or not a memo served it.
    x, ctx = Fraction(args[0]), args[1]
    m = x.numerator * pow(x.denominator, -1, ctx.modulus) % ctx.modulus
    if m > 1:
        tracer.count("pgamma.unit_factors", (m - 1) - (m - 1) // ctx.p)
    tracer.maximum("pgamma.max_exponent", ctx.k)


def _observe_series(tracer: Tracer, args, kwargs, result) -> None:
    spec = args[0] if args else kwargs["spec"]
    tracer.count("hyperkernel.series_terms", spec.truncation)


def _observe_poly(tracer: Tracer, args, kwargs, result) -> None:
    top = max((_bits(c) for c in result.coeffs), default=0)
    tracer.maximum("qring.max_coeff_bits", top)


# (defining module, attribute path, span name, observer)
PROBES = (
    ("sclab.rationals", "pochhammer", "rationals.pochhammer", None),
    ("sclab.padic", "vp", "padic.vp", _observe_vp),
    ("sclab.padic", "PadicContext.reduce", "padic.reduce", None),
    ("sclab.pgamma", "gamma_p", "pgamma.gamma_p", _observe_gamma),
    ("sclab.cyclotomic", "CycElement.__mul__", "cyclotomic.mul", None),
    ("sclab.cyclotomic", "CycElement.inverse", "cyclotomic.inverse", None),
    ("sclab.hyperkernel", "eval_truncated", "hyperkernel.eval_truncated", _observe_series),
    ("sclab.hyperkernel", "fuzz_whipple", "hyperkernel.fuzz", None),
    ("sclab.hyperkernel", "fuzz_karlsson_minton", "hyperkernel.fuzz", None),
    ("sclab.hyperkernel", "fuzz_d1", "hyperkernel.fuzz", None),
    ("sclab.hyperkernel", "conjugate_product_congruence", "hyperkernel.conjugate_product", None),
    ("sclab.claims", "verify", "claims.verify", None),
    ("sclab.claims", "lhs_value", "claims.lhs_value", None),
    ("sclab.claims", "rhs_residue", "claims.rhs_residue", None),
    ("sclab.claims", "proof_chain_thm1", "claims.proof_chain", None),
    ("sclab.claims", "proof_chain_thm2", "claims.proof_chain", None),
    ("sclab.qring", "verify_q_conjecture", "qring.verify_q_conjecture", None),
    ("sclab.qring", "QRingElement.__mul__", "qring.ring_mul", None),
    ("sclab.qring", "QRingElement.inverse", "qring.inverse", None),
    ("sclab.qring", "QPolynomial.__mul__", "qring.poly_mul", _observe_poly),
    ("sclab.qring", "QPolynomial.__divmod__", "qring.poly_divmod", None),
)


def _namespaces():
    """Every loaded sclab module and every class defined in one."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "sclab" or name.startswith("sclab."):
            out.append(mod)
            out.extend(
                cls for _, cls in inspect.getmembers(mod, inspect.isclass)
                if cls.__module__ == name
            )
    return out


def install(tracer: Tracer) -> None:
    namespaces = _namespaces()
    for module, path, span_name, observe in PROBES:
        owner = sys.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if not tracer.patch(original, span_name, namespaces, observe):
            raise RuntimeError(f"probe {module}.{path} bound nowhere")


def memo_hits() -> int:
    """Hits of the Gamma memo this child has made.  It is private, so a
    change that removes it reads 0 here, and the self-check says so."""
    from sclab import pgamma

    memo = getattr(pgamma, "_gamma_at_integer", None)
    return memo.cache_info().hits if hasattr(memo, "cache_info") else 0


# Per-layer metric -> (unit, source).  Sources: ("calls", span),
# ("self_ms", span), ("incl_ms", span), ("counter", name), ("max", name).
LAYER_METRICS = {
    "pgamma.gamma_p.calls": ("count", ("calls", "pgamma.gamma_p")),
    "pgamma.gamma_p.ms": ("ms", ("self_ms", "pgamma.gamma_p")),
    "pgamma.unit_factors": ("count", ("counter", "pgamma.unit_factors")),
    "pgamma.max_exponent": ("exponent", ("max", "pgamma.max_exponent")),
    "pgamma.memo_hits": ("count", ("counter", "pgamma.memo_hits")),
    "hyperkernel.eval_truncated.calls": ("count", ("calls", "hyperkernel.eval_truncated")),
    "hyperkernel.eval_truncated.ms": ("ms", ("self_ms", "hyperkernel.eval_truncated")),
    "hyperkernel.series_terms": ("count", ("counter", "hyperkernel.series_terms")),
    "hyperkernel.fuzz.ms": ("ms", ("self_ms", "hyperkernel.fuzz")),
    "hyperkernel.conjugate_product.ms": ("ms", ("self_ms", "hyperkernel.conjugate_product")),
    "padic.vp.calls": ("count", ("calls", "padic.vp")),
    "padic.vp.ms": ("ms", ("self_ms", "padic.vp")),
    "padic.vp.max_bits": ("bits", ("max", "padic.vp.max_bits")),
    "padic.reduce.calls": ("count", ("calls", "padic.reduce")),
    "padic.reduce.ms": ("ms", ("self_ms", "padic.reduce")),
    "claims.verify.calls": ("count", ("calls", "claims.verify")),
    "claims.verify.ms": ("ms", ("self_ms", "claims.verify")),
    "claims.lhs_value.incl_ms": ("ms", ("incl_ms", "claims.lhs_value")),
    "claims.rhs_residue.incl_ms": ("ms", ("incl_ms", "claims.rhs_residue")),
    "claims.proof_chain.ms": ("ms", ("self_ms", "claims.proof_chain")),
    "rationals.pochhammer.calls": ("count", ("calls", "rationals.pochhammer")),
    "rationals.pochhammer.ms": ("ms", ("self_ms", "rationals.pochhammer")),
    "cyclotomic.mul.calls": ("count", ("calls", "cyclotomic.mul")),
    "cyclotomic.mul.ms": ("ms", ("self_ms", "cyclotomic.mul")),
    "cyclotomic.inverse.calls": ("count", ("calls", "cyclotomic.inverse")),
    "cyclotomic.inverse.ms": ("ms", ("self_ms", "cyclotomic.inverse")),
    "qring.ring_mul.calls": ("count", ("calls", "qring.ring_mul")),
    "qring.ring_mul.ms": ("ms", ("self_ms", "qring.ring_mul")),
    "qring.inverse.calls": ("count", ("calls", "qring.inverse")),
    "qring.inverse.ms": ("ms", ("self_ms", "qring.inverse")),
    "qring.poly_mul.calls": ("count", ("calls", "qring.poly_mul")),
    "qring.poly_mul.ms": ("ms", ("self_ms", "qring.poly_mul")),
    "qring.poly_divmod.calls": ("count", ("calls", "qring.poly_divmod")),
    "qring.poly_divmod.ms": ("ms", ("self_ms", "qring.poly_divmod")),
    "qring.max_coeff_bits": ("bits", ("max", "qring.max_coeff_bits")),
}

# The self-check: each metric must be non-zero on every workload listed.
_SERIES = ("series-ladder", "field-chains")
_VERIFY = ("gamma-sweep", "series-ladder")
MUST_BE_NONZERO = {
    **{m: ("gamma-sweep",) for m in LAYER_METRICS if m.startswith("pgamma.")},
    "hyperkernel.eval_truncated.calls": _SERIES,
    "hyperkernel.eval_truncated.ms": _SERIES,
    "hyperkernel.series_terms": _SERIES,
    "hyperkernel.fuzz.ms": ("field-chains",),
    "hyperkernel.conjugate_product.ms": ("field-chains",),
    **{m: ("series-ladder",) for m in LAYER_METRICS if m.startswith("padic.")},
    "claims.verify.calls": _VERIFY,
    "claims.verify.ms": _VERIFY,
    "claims.lhs_value.incl_ms": _VERIFY,
    "claims.rhs_residue.incl_ms": _VERIFY,
    "claims.proof_chain.ms": ("field-chains",),
    **{m: ("field-chains",) for m in LAYER_METRICS if m.startswith(("rationals.", "cyclotomic."))},
    **{m: ("q-analogue",) for m in LAYER_METRICS if m.startswith("qring.")},
}


def merge(results: list[dict]) -> tuple[dict, dict, dict]:
    """Sum span summaries and counters over child results; take the
    largest of each maximum."""
    spans: dict[str, dict[str, int]] = {}
    counters: dict[str, int] = {}
    maxima: dict[str, int] = {}
    for res in results:
        for name, row in res["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})
            for key in acc:
                acc[key] += row[key]
        for name, value in res["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in res["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), value)
    return spans, counters, maxima


def layer_metrics(spans: dict, counters: dict, maxima: dict) -> dict[str, dict]:
    out = {}
    for metric, (unit, (kind, key)) in LAYER_METRICS.items():
        row = spans.get(key, {"calls": 0, "self_ns": 0, "incl_ns": 0})
        if kind == "calls":
            value = row["calls"]
        elif kind == "self_ms":
            value = row["self_ns"] / 1e6
        elif kind == "incl_ms":
            value = row["incl_ns"] / 1e6
        elif kind == "counter":
            value = counters.get(key, 0)
        else:
            value = maxima.get(key, 0)
        out[metric] = {"value": value, "unit": unit}
    return out


def zero_metrics(workload: str, metrics: dict) -> list[str]:
    return [
        m for m, workloads in MUST_BE_NONZERO.items()
        if workload in workloads and not metrics[m]["value"]
    ]
