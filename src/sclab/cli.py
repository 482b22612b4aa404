"""Command-line frontend: claim verification, prime sweeps, identity
fuzzing, q-side checks, and proof-chain replays.

Exit codes: 0 when every check passes, 1 when any congruence or identity
fails (the failing record is still serialized), 2 on usage errors,
instances the engine cannot attempt, and internal errors (a traceback and
an ``internal error:`` line on stderr).  Reports are deterministic given
the command line and seed; ``--test-mode`` zeroes the timing field so
output can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import claims, hyperkernel

FORMATS = ("text", "json", "csv")
_PROOF_CHAINS = {"thm1": claims.proof_chain_thm1, "thm2": claims.proof_chain_thm2}


def _report_record(report: claims.CongruenceReport) -> dict:
    # Residues are decimal strings: p^6 exceeds 64 bits already at p = 41.
    return {
        "claim": report.claim,
        "p": report.p,
        "r": report.r,
        "modulus_exponent": report.modulus_exponent,
        "case_label": report.case_label,
        "lhs_residue": str(report.lhs_residue),
        "rhs_residue": str(report.rhs_residue),
        "witness_valuation": report.witness_valuation,
        "pass": report.passed,
        "elapsed_ms": round(report.elapsed_ms, 3),
    }


def _chain_records(chain: claims.ProofChain) -> list[dict]:
    # a skipped chain has no steps and reports one "skipped" record
    steps = chain.steps or [claims.ChainStep("skipped", chain.reason, None, None, True)]
    return [
        {
            "claim": chain.claim,
            "p": chain.p,
            "r": chain.r,
            "step": step.name,
            "modulus_exponent": step.modulus_exponent,
            "witness_valuation": step.witness_valuation,
            "pass": step.passed,
        }
        for step in steps
    ]


def _emit(records: list[dict], fmt: str, out) -> None:
    # json, csv and io are imported by the format that needs them: the
    # default text output needs none of them, and a cold start pays for each
    if fmt == "json":
        import json

        text = json.dumps(records, indent=2) + "\n"
    elif fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        if records:
            fields = list(records[0])
            writer.writerow(fields)
            for rec in records:
                writer.writerow([_fmt_value(rec[f], f) for f in fields])
        text = buf.getvalue()
    else:
        lines = []
        for rec in records:
            lines.append(
                "  ".join(
                    f"{key}={_fmt_value(value, key)}" for key, value in rec.items()
                )
            )
        text = "\n".join(lines) + ("\n" if lines else "")
    out.write(text)
    out.flush()  # a full disk shows here, inside the caller's OSError handler


def _fmt_value(value, key: str = ""):
    if value is None:
        # an exact step has no finite modulus; a zero difference has
        # infinite valuation
        return "inf" if key == "witness_valuation" else "exact"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return value


def _summary(records: list[dict], skipped: int = 0, excluded: int = 0) -> str:
    passed = sum(1 for rec in records if rec["pass"])
    failed = len(records) - passed
    parts = [f"{passed} passed", f"{failed} failed"]
    if skipped:
        parts.append(f"{skipped} inadmissible skipped")
    if excluded:
        parts.append(f"{excluded} hand-verified excluded")
    return ", ".join(parts)


def _count(text: str) -> int:
    """An argparse type for counts of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _modk(args) -> int:
    """The modulus exponent, checked here so that the error names --modk."""
    return claims._resolve_exponent(claims.family(args.claim), args.modk, "--modk")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sclab",
        description="Exact verification of truncated hypergeometric "
        "supercongruences, prime by prime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=FORMATS, default="text")
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")
        sp.add_argument("--test-mode", action="store_true", help="zero the timing fields")

    p_verify = sub.add_parser("verify", help="verify one claim instance")
    p_verify.add_argument("--claim", required=True, choices=sorted(claims.FAMILIES))
    p_verify.add_argument("--p", required=True, type=int)
    p_verify.add_argument("--r", type=int, default=None)
    p_verify.add_argument(
        "--modk", type=int, default=None,
        help="lower the modulus exponent (never above the family default)",
    )
    common(p_verify)

    p_scan = sub.add_parser("scan", help="verify every admissible instance up to a bound")
    p_scan.add_argument("--claim", required=True, choices=sorted(claims.FAMILIES))
    p_scan.add_argument("--pmax", type=int, default=None,
                        help="largest prime to test (default: the family's desk-scale bound)")
    p_scan.add_argument("--r-set", default=None,
                        help="comma-separated r values (default: the family's list); "
                        "a fixed-weight family takes only its own r")
    p_scan.add_argument("--modk", type=int, default=None)
    p_scan.add_argument(
        "--workers", type=_count,
        # a string default goes through the type at parse time, so a bad
        # SCLAB_WORKERS is a usage error like a bad --workers
        default=os.environ.get("SCLAB_WORKERS", "1"),
        help="parallel workers for the sweep (default: SCLAB_WORKERS or 1)",
    )
    common(p_scan)

    p_ident = sub.add_parser("identity", help="fuzz the transformation/summation identities")
    p_ident.add_argument("--name", choices=sorted(hyperkernel.FUZZERS) + ["all"], default="all")
    p_ident.add_argument("--trials", type=_count, default=200)
    p_ident.add_argument("--seed", type=int, default=0)
    common(p_ident)

    p_q = sub.add_parser("qverify", help="check the q-side analogue in Q[q]/(Phi_p^4)")
    p_q.add_argument("--p", required=True, type=int)
    p_q.add_argument("--r", required=True, type=int)
    p_q.add_argument(
        "--twist", type=int, default=0,
        help="per-term exponent twist; nonzero is the built-in negative control",
    )
    common(p_q)

    p_chain = sub.add_parser("proofchain", help="replay a derivation step by step")
    p_chain.add_argument("--claim", required=True, choices=sorted(_PROOF_CHAINS))
    p_chain.add_argument("--p", required=True, type=int)
    p_chain.add_argument("--r", required=True, type=int)
    common(p_chain)

    return parser


def _run_verify(args) -> tuple:
    report = claims.verify(args.claim, args.p, args.r, _modk(args))
    records = [_report_record(report)]
    return records, [_summary(records)], 0 if report.passed else 1


def _run_scan(args) -> tuple:
    fam = claims.family(args.claim)
    p_max = fam.default_p_max if args.pmax is None else args.pmax
    claims._require_p_max(p_max, "--pmax")
    r_values = None
    if args.r_set is not None:
        try:
            r_values = [int(tok) for tok in args.r_set.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(
                f"--r-set takes comma-separated integers, got {args.r_set!r}"
            ) from None
    result = claims.scan(
        args.claim, p_max, r_values, _modk(args), workers=args.workers
    )
    records = [_report_record(rep) for rep in result.reports]
    footer = [_summary(records, result.skipped_inadmissible, len(result.excluded))]
    footer += [f"excluded (p={p}, r={r}): {reason}" for p, r, reason in result.excluded]
    return records, footer, 0 if result.all_passed else 1


def _run_identity(args) -> tuple:
    names = sorted(hyperkernel.FUZZERS) if args.name == "all" else [args.name]
    records = []
    for name in names:
        result = hyperkernel.FUZZERS[name](trials=args.trials, seed=args.seed)
        records.append(
            {
                "identity": name,
                "trials": result.trials,
                "seed": result.seed,
                "failures": len(result.failures),
                "pass": result.passed,
            }
        )
    return records, [_summary(records)], 0 if all(rec["pass"] for rec in records) else 1


def _run_qverify(args) -> tuple:
    # only this command needs the quotient ring, so only it compiles qring
    from . import qring

    report = qring.verify_q_conjecture(args.p, args.r, exponent_twist=args.twist)
    record = {
        "claim": "qthm1",
        "p": report.p,
        "r": report.r,
        "exponent_twist": report.exponent_twist,
        "ring_zero": report.ring_zero,
        "division_zero": report.division_zero,
        "methods_agree": report.methods_agree,
        "pass": report.zero,
        "elapsed_ms": round(report.elapsed_ms, 3),
    }
    verdict = "holds" if report.zero else "conjecture violated"
    code = 0 if report.zero else 1
    if not report.methods_agree:
        verdict, code = "internal error: methods disagree", 2
    footer = [f"q-analogue at (p={args.p}, r={args.r}): {verdict}"]
    return [record], footer, code


def _run_proofchain(args) -> tuple:
    chain = _PROOF_CHAINS[args.claim](args.p, args.r)
    footer = [f"chain status: {chain.status}" + (f" ({chain.reason})" if chain.reason else "")]
    return _chain_records(chain), footer, 0 if chain.status != "fail" else 1


# Each runner returns (records, footer lines for --format text, exit code).
_RUNNERS = {
    "verify": _run_verify,
    "scan": _run_scan,
    "identity": _run_identity,
    "qverify": _run_qverify,
    "proofchain": _run_proofchain,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # opened before the run, so an unwritable path costs no verification
        out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
        try:
            return _run(args, out)
        finally:
            if args.out:
                out.close()  # flushes, so it can fail after a good write
    except OSError as exc:
        # an unwritable report is a usage error, not a failed congruence
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2


def _run(args, out) -> int:
    """Run the command and write its report to ``out``; the exit code."""
    try:
        records, footer, code = _RUNNERS[args.command](args)
    except (claims.UnsupportedInstanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash is not a failed claim, which exit 1 reports
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.test_mode:
        for rec in records:
            if "elapsed_ms" in rec:
                rec["elapsed_ms"] = 0
    _emit(records, args.format, out)  # main reports its OSError
    if args.format == "text":
        print("\n".join(footer))
    return code


if __name__ == "__main__":
    sys.exit(main())
