"""One cold sclab process: set up as the CLI does, run one group of ops,
report.  Reads ``{"ops": [...], "trace": bool}`` as JSON on stdin and writes
one JSON object on stdout.  ``run.py`` starts one of these per group.
Each op is reported with its CPU time, less the speed sampler's, and the
mean reference-kernel time sampled while it ran (see reference.py).
"""

import resource

import sclab
import sclab.cli

sclab.cli.build_parser()
# Set-up ends here: the CPU time of starting the interpreter, importing
# sclab and building the parser.
_USAGE = resource.getrusage(resource.RUSAGE_SELF)
SETUP_S = _USAGE.ru_utime + _USAGE.ru_stime

import json  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import process_time_ns  # noqa: E402

from reference import SpeedSampler, kernel  # noqa: E402
from sclab import claims, hyperkernel, padic, qring  # noqa: E402

# Each op kind: (call the public function, check its result).  The check
# returns None when the verdict is the expected one, else what is wrong.
# Functions are looked up on their module at call time, so a traced run
# calls the wrapped versions.


def _verify(op):
    return claims.verify(op["claim"], op["p"], op["r"])


def _check_verify(op, rep):
    k = claims.FAMILIES[op["claim"]].modulus_exponent
    if (rep.claim, rep.p, rep.r, rep.modulus_exponent) != (op["claim"], op["p"], op["r"], k):
        return f"report is for {(rep.claim, rep.p, rep.r, rep.modulus_exponent)}"
    if not rep.passed:
        return "verify did not pass"
    if rep.lhs_residue != rep.rhs_residue:
        return f"lhs_residue {rep.lhs_residue} != rhs_residue {rep.rhs_residue}"
    if rep.witness_valuation is not None and rep.witness_valuation < k:
        return f"witness {rep.witness_valuation} < k = {k}"
    return None


def _witness(op):
    ctx = padic.PadicContext(op["p"], op["k"])
    lhs = claims.lhs_value(op["claim"], op["p"], op["r"])
    rhs = claims.rhs_residue(op["claim"], op["p"], op["r"], ctx)
    return padic.vp(lhs - rhs.value, op["p"])


def _perturbed(op):
    lhs = claims.lhs_value(op["claim"], op["p"], op["r"])
    return padic.vp(lhs + Fraction(op["p"]) ** op["power"], op["p"])


def _check_expected(op, value):
    return None if value == op["expect"] else f"got {value}, expected {op['expect']}"


def _qverify(op):
    return qring.verify_q_conjecture(op["p"], op["r"], exponent_twist=op["twist"])


def _check_qverify(op, rep):
    want = op["zero"]
    if rep.ring_zero is not want or rep.division_zero is not want:
        return f"ring_zero={rep.ring_zero} division_zero={rep.division_zero}, both should be {want}"
    return None


def _fuzz(op):
    return getattr(hyperkernel, op["fn"])(trials=op["trials"], seed=op["seed"])


def _check_fuzz(op, res):
    if res.trials != op["trials"] or not res.passed:
        return f"{res.trials} trials, failures {res.failures[:3]}"
    return None


def _conjprod(op):
    return hyperkernel.conjugate_product_congruence(
        Fraction(op["a"]), Fraction(op["b"]), op["p"], op["k"], op["order"]
    )


def _check_true(op, value):
    return None if value is True else f"got {value!r}"


def _chain(op):
    return getattr(claims, "proof_chain_" + op["claim"])(op["p"], op["r"])


def _check_chain(op, chain):
    failed = [s.name for s in chain.steps if not s.passed]
    if chain.status != "pass" or not chain.steps or failed:
        return f"status {chain.status}, failed steps {failed}"
    return None


KINDS = {
    "verify": (_verify, _check_verify),
    "witness": (_witness, _check_expected),
    "perturbed": (_perturbed, _check_expected),
    "qverify": (_qverify, _check_qverify),
    "fuzz": (_fuzz, _check_fuzz),
    "conjprod": (_conjprod, _check_true),
    "chain": (_chain, _check_chain),
}


def main() -> None:
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        import probes
        from spans import Tracer

        tracer = Tracer()
        probes.install(tracer)
    sampler = SpeedSampler()
    kernel()  # untimed: the first run in a process pays for warming up
    setup_kernel_ns = sampler.mean_ns()
    results = []
    for index, op in enumerate(job["ops"]):
        call, check = KINDS[op["kind"]]
        if tracer is not None:
            tracer.current_op = index
        error = None
        started = process_time_ns()
        sampler.start()
        try:
            value = call(op)
        except Exception as exc:  # a raise is a failed op, not a crash
            error = f"raised {exc!r}"
        sampled_ns = sampler.stop()
        elapsed = process_time_ns() - started - sampled_ns
        if error is None:
            error = check(op, value)
        results.append([elapsed, error, sampler.mean_ns()])
    out = {
        "setup_s": SETUP_S,
        "setup_kernel_ns": setup_kernel_ns,
        "ops": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None,
    }
    if tracer is not None:
        tracer.restore()
        counters = dict(tracer.counters)
        counters["pgamma.memo_hits"] = probes.memo_hits()
        out["trace"] = {
            "spans": tracer.summary(),
            "counters": counters,
            "maxima": tracer.maxima,
            "spans_recorded": len(tracer.start),
        }
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
