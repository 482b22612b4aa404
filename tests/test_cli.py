import errno
import io
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from sclab import claims, cli

EXPECTED_KEYS = [
    "claim", "p", "r", "modulus_exponent", "case_label",
    "lhs_residue", "rhs_residue", "witness_valuation", "pass", "elapsed_ms",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify", "--claim", "thm1", "--p", "7", "--r", "1",
        "--format", "json", "--test-mode",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    record = records[0]
    assert list(record) == EXPECTED_KEYS
    assert record["pass"] is True
    assert record["witness_valuation"] >= 4
    assert isinstance(record["lhs_residue"], str)
    assert record["elapsed_ms"] == 0


def test_scan_csv_rows(capsys):
    code, out, _ = run(
        capsys, "scan", "--claim", "d2", "--pmax", "23",
        "--format", "csv", "--test-mode",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(EXPECTED_KEYS)
    primes = [int(line.split(",")[1]) for line in lines[1:]]
    assert primes == [5, 7, 11, 13, 17, 19, 23]
    assert all(line.split(",")[8] == "true" for line in lines[1:])


def test_identity_determinism(capsys):
    args = ("identity", "--name", "km", "--trials", "25", "--seed", "42",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_qverify_pass_and_negative_control(capsys):
    code, out, _ = run(
        capsys, "qverify", "--p", "7", "--r", "1", "--format", "json",
        "--test-mode",
    )
    assert code == 0
    record = json.loads(out)[0]
    assert record["pass"] is True and record["methods_agree"] is True

    code, out, _ = run(
        capsys, "qverify", "--p", "7", "--r", "1", "--twist", "1",
        "--format", "json", "--test-mode",
    )
    assert code == 1
    record = json.loads(out)[0]
    assert record["pass"] is False and record["methods_agree"] is True


def test_qverify_text_reports_violation_distinctly(capsys):
    code, out, _ = run(
        capsys, "qverify", "--p", "7", "--r", "1", "--twist", "1",
        "--format", "text", "--test-mode",
    )
    assert code == 1
    assert "conjecture violated" in out


def test_proofchain_text(capsys):
    code, out, _ = run(
        capsys, "proofchain", "--claim", "thm1", "--p", "7", "--r", "1",
        "--format", "text", "--test-mode",
    )
    assert code == 0
    assert "chain status: pass" in out


def test_proofchain_offers_only_thm1_and_thm2():
    parser = cli.build_parser()
    for claim in sorted(claims.FAMILIES):
        argv = ["proofchain", "--claim", claim, "--p", "7", "--r", "1"]
        if claim in ("thm1", "thm2"):
            assert parser.parse_args(argv).claim == claim
            continue
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_inadmissible_instance_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--claim", "thm1", "--p", "3", "--r", "1")
    assert code == 2
    assert "error:" in err


def test_unsupported_instance_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--claim", "thm2", "--p", "2", "--r", "1")
    assert code == 2
    assert "hand computation" in err


def test_missing_r_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--claim", "thm1", "--p", "7")
    assert code == 2


def test_prime_beyond_the_primality_bound_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--claim", "lr3", "--p", str(10**25))
    assert code == 2
    assert "3317044064679887385961981" in err


def test_qverify_inadmissible_exits_2(capsys):
    code, _, err = run(capsys, "qverify", "--p", "11", "--r", "-1")
    assert code == 2
    assert "error:" in err


def test_scan_with_no_admissible_instances(capsys):
    # nothing verified, nothing failed
    code, out, _ = run(
        capsys, "scan", "--claim", "thm1", "--pmax", "4", "--r-set=-3",
        "--format", "json", "--test-mode",
    )
    assert code == 0
    assert json.loads(out) == []


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan"])  # missing --claim
    assert exc.value.code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--claim", "lr3", "--p", "5",
        "--format", "json", "--test-mode", "--out", str(target),
    )
    assert code == 0
    records = json.loads(target.read_text())
    assert records[0]["claim"] == "lr3"


def test_unwritable_out_exits_2_before_any_verification(tmp_path, capsys, monkeypatch):
    def scan(*args, **kwargs):
        pytest.fail("the sweep ran before --out was opened")

    monkeypatch.setattr(claims, "scan", scan)
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "scan", "--claim", "d2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write the report: ")
    assert not target.parent.exists()


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc

    return raiser


@pytest.mark.parametrize(
    "name, exc, argv",
    [
        ("iter_primes", MemoryError(), ["scan", "--claim", "d2", "--pmax", "50"]),
        ("verify", RuntimeError("boom"), ["verify", "--claim", "lr3", "--p", "5"]),
    ],
)
def test_crash_is_an_internal_error_with_exit_2(capsys, monkeypatch, name, exc, argv):
    # exit 1 means a failed claim; a crash must not look like one
    monkeypatch.setattr(claims, name, _raise(exc))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith(f"\ninternal error: {type(exc).__name__}: {exc}\n")


def test_crash_leaves_an_empty_out_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(claims, "verify", _raise(RuntimeError("boom")))
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--claim", "lr3", "--p", "5", "--out", str(target),
    )
    assert code == 2 and out == ""
    assert target.read_text() == ""


def test_scan_text_mentions_exclusions(capsys):
    code, out, _ = run(
        capsys, "scan", "--claim", "thm2", "--pmax", "7",
        "--r-set", "1", "--test-mode",
    )
    assert code == 0
    assert "excluded (p=2, r=1)" in out


def test_workers_default_from_environment(monkeypatch):
    monkeypatch.setenv("SCLAB_WORKERS", "3")
    args = cli.build_parser().parse_args(["scan", "--claim", "lr3"])
    assert args.workers == 3


def test_bad_workers_environment_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("SCLAB_WORKERS", "four")
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--claim", "lr3", "--pmax", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--workers" in err and "'four'" in err
    cli.build_parser()  # building the parser alone does not read the value


@pytest.mark.parametrize("workers", ["-4", "0"])
def test_scan_refuses_fewer_than_one_worker(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--claim", "lr3", "--pmax", "7", "--workers", workers])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--workers" in err and "at least 1" in err


def test_zero_workers_environment_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("SCLAB_WORKERS", "0")
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--claim", "lr3", "--pmax", "7"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--workers" in err and "at least 1" in err


@pytest.mark.parametrize("r_set", ["5,7", "1,5", "-1"])
def test_scan_refuses_r_set_for_fixed_weight_family(capsys, r_set):
    code, out, err = run(capsys, "scan", "--claim", "d2", "--pmax", "7", f"--r-set={r_set}")
    assert code == 2
    assert out == ""
    assert "error:" in err and "fixed weight" in err


def test_scan_accepts_canonical_r_for_fixed_weight_family(capsys):
    code, out, _ = run(
        capsys, "scan", "--claim", "d2", "--pmax", "7", "--r-set", "1",
        "--format", "json", "--test-mode",
    )
    assert code == 0
    assert [rec["p"] for rec in json.loads(out)] == [5, 7]


@pytest.mark.parametrize("r_set", [" , ", ""])
def test_scan_refuses_empty_r_set(capsys, r_set):
    code, out, err = run(capsys, "scan", "--claim", "thm1", "--pmax", "7", f"--r-set={r_set}")
    assert code == 2
    assert out == ""
    assert "error:" in err and "empty" in err


@pytest.mark.parametrize("r_set", ["a", "1,x"])
def test_scan_r_set_of_non_integers_names_flag(capsys, r_set):
    code, out, err = run(capsys, "scan", "--claim", "thm1", "--pmax", "7", f"--r-set={r_set}")
    assert code == 2
    assert out == ""
    assert "--r-set" in err and "comma-separated integers" in err


@pytest.mark.parametrize("trials", ["-5", "0"])
def test_identity_refuses_fewer_than_one_trial(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        cli.main(["identity", "--trials", trials])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--trials" in err and "at least 1" in err


@pytest.mark.parametrize("modk", ["0", "-1", "7"])
@pytest.mark.parametrize("command", ["verify", "scan"])
def test_modk_out_of_range_names_flag_and_range(capsys, command, modk):
    where = ["--p", "7"] if command == "verify" else ["--pmax", "7"]
    code, out, err = run(capsys, command, "--claim", "d2", *where, "--modk", modk)
    assert code == 2
    assert out == ""
    assert "--modk" in err and "between 1 and 6" in err


@pytest.mark.parametrize("pmax", ["1", "0", "-3"])
def test_scan_pmax_below_two_names_flag_and_range(capsys, pmax):
    code, out, err = run(capsys, "scan", "--claim", "lr3", "--pmax", pmax)
    assert code == 2
    assert out == ""
    assert "--pmax" in err and "at least 2" in err


def test_identity_all_runs_every_fuzzer(capsys):
    code, out, _ = run(
        capsys, "identity", "--name", "all", "--trials", "5", "--seed", "1",
        "--format", "json",
    )
    assert code == 0
    names = [rec["identity"] for rec in json.loads(out)]
    assert names == ["d1", "km", "whipple"]


def test_modk_lowering(capsys):
    code, out, _ = run(
        capsys, "verify", "--claim", "d2", "--p", "7", "--modk", "4",
        "--format", "json", "--test-mode",
    )
    assert code == 0
    assert json.loads(out)[0]["modulus_exponent"] == 4

    code, _, err = run(
        capsys, "verify", "--claim", "d2", "--p", "7", "--modk", "7",
    )
    assert code == 2


QVERIFY_GOLDEN = """[
  {{
    "claim": "qthm1",
    "p": {p},
    "r": {r},
    "exponent_twist": {twist},
    "ring_zero": {zero},
    "division_zero": {zero},
    "methods_agree": true,
    "pass": {zero},
    "elapsed_ms": 0
  }}
]
"""


@pytest.mark.parametrize(
    "p, r, twist, zero, code",
    [(7, 1, 0, "true", 0), (7, 1, 1, "false", 1), (13, -1, 0, "true", 0)],
)
def test_qverify_json_golden(capsys, p, r, twist, zero, code):
    # recorded before the integer-coefficient ring; must stay byte-identical
    got_code, out, _ = run(
        capsys, "qverify", "--p", str(p), "--r", str(r), "--twist", str(twist),
        "--format", "json", "--test-mode",
    )
    assert got_code == code
    assert out == QVERIFY_GOLDEN.format(p=p, r=r, twist=twist, zero=zero)


SKIPPED_CHAIN_GOLDEN = """[
  {{
    "claim": "{claim}",
    "p": 2,
    "r": 1,
    "step": "skipped",
    "modulus_exponent": null,
    "witness_valuation": null,
    "pass": true
  }}
]
"""


@pytest.mark.parametrize("claim", ["thm1", "thm2"])
def test_proofchain_skipped_json_golden(capsys, claim):
    code, out, _ = run(
        capsys, "proofchain", "--claim", claim, "--p", "2", "--r", "1",
        "--format", "json", "--test-mode",
    )
    assert code == 0
    assert out == SKIPPED_CHAIN_GOLDEN.format(claim=claim)


SCAN_THM2_TEXT_GOLDEN = """\
claim=thm2  p=5  r=-2  modulus_exponent=5  case_label=gamma-closed-form  lhs_residue=0  rhs_residue=0  witness_valuation=5  pass=true  elapsed_ms=0
claim=thm2  p=5  r=1  modulus_exponent=5  case_label=gamma-closed-form  lhs_residue=0  rhs_residue=0  witness_valuation=5  pass=true  elapsed_ms=0
claim=thm2  p=7  r=-4  modulus_exponent=5  case_label=gamma-closed-form  lhs_residue=0  rhs_residue=0  witness_valuation=5  pass=true  elapsed_ms=0
claim=thm2  p=7  r=-1  modulus_exponent=5  case_label=gamma-closed-form  lhs_residue=0  rhs_residue=0  witness_valuation=5  pass=true  elapsed_ms=0
claim=thm2  p=11  r=-5  modulus_exponent=5  case_label=gamma-closed-form  lhs_residue=117128  rhs_residue=117128  witness_valuation=5  pass=true  elapsed_ms=0
claim=thm2  p=11  r=-2  modulus_exponent=5  case_label=gamma-closed-form  lhs_residue=73205  rhs_residue=73205  witness_valuation=5  pass=true  elapsed_ms=0
claim=thm2  p=11  r=1  modulus_exponent=5  case_label=gamma-closed-form  lhs_residue=102487  rhs_residue=102487  witness_valuation=5  pass=true  elapsed_ms=0
claim=thm2  p=13  r=-4  modulus_exponent=5  case_label=gamma-closed-form  lhs_residue=114244  rhs_residue=114244  witness_valuation=5  pass=true  elapsed_ms=0
claim=thm2  p=13  r=-1  modulus_exponent=5  case_label=gamma-closed-form  lhs_residue=314171  rhs_residue=314171  witness_valuation=5  pass=true  elapsed_ms=0
9 passed, 0 failed, 20 inadmissible skipped, 1 hand-verified excluded
excluded (p=2, r=1): established by direct hand computation; outside the odd-p Gamma evaluator
"""


def test_scan_text_golden(capsys):
    code, out, _ = run(capsys, "scan", "--claim", "thm2", "--pmax", "13", "--test-mode")
    assert code == 0
    assert out == SCAN_THM2_TEXT_GOLDEN


def test_readme_command_lines_run(capsys):
    # every `sclab ...` line of the README's command-line block runs as
    # written; the one marked as the negative control must exit 1
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("sclab ")]
    assert sum("negative control" in line for line in lines) == 1
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        expected = 1 if "negative control" in line else 0
        assert cli.main(argv) == expected, line
        capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["verify", "--claim", "lr3", "--p", "5"],
    ["scan", "--claim", "d2", "--pmax", "13"],
])
@pytest.mark.parametrize("target", ["directory", "missing/report.txt"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, command, target):
    (tmp_path / "directory").mkdir()
    code, out, err = run(capsys, *command, "--test-mode", "--out", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write the report: ")
    assert err.count("\n") == 1 and str(tmp_path / target) in err


class _FullDisk(io.StringIO):
    """A report file on a full disk: each method in ``failing`` raises ENOSPC."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def flush(self):
        if "flush" in self.failing:
            raise OSError(errno.ENOSPC, "No space left on device")

    def close(self):
        super().close()
        if "close" in self.failing:
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("failing", [("flush", "close"), ("close",)])
def test_report_that_fails_to_flush_or_close_is_a_usage_error(monkeypatch, capsys, failing):
    opened = []

    def open_full(*args, **kwargs):
        opened.append(_FullDisk(failing))
        return opened[-1]

    monkeypatch.setattr(cli, "open", open_full, raising=False)
    code, _, err = run(
        capsys, "verify", "--claim", "lr3", "--p", "3", "--test-mode", "--out", "report",
    )
    assert code == 2
    assert err == "error: cannot write the report: [Errno 28] No space left on device\n"
    assert len(opened) == 1 and opened[0].closed


def test_proofchain_failure_exits_1_and_prints_its_records(monkeypatch, capsys):
    thm2 = claims.FAMILIES["thm2"]
    perturbed = thm2._replace(finite_sum=lambda r: thm2.finite_sum(r) + Fraction(1, 3))
    monkeypatch.setitem(claims.FAMILIES, "thm2", perturbed)
    code, out, err = run(
        capsys, "proofchain", "--claim", "thm2", "--p", "11", "--r", "-2",
        "--format", "json", "--test-mode",
    )
    assert code == 1 and err == ""
    records = json.loads(out)
    assert len(records) == 8
    assert [rec["step"] for rec in records if not rec["pass"]] == [
        "remainder-block", "assembly",
    ]


def test_qverify_reports_disagreeing_routes_as_internal_error(monkeypatch, capsys):
    from sclab import qring

    monkeypatch.setattr(qring, "_jet_sum", lambda p, r, step: (1,))
    code, out, _ = run(capsys, "qverify", "--p", "7", "--r", "1", "--test-mode")
    assert code == 2
    assert "ring_zero=true  division_zero=false  methods_agree=false" in out
    assert out.endswith("q-analogue at (p=7, r=1): internal error: methods disagree\n")
