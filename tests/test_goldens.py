import hashlib

import pytest

import goldens

QUICK = [entry for entry in goldens.load() if entry.tier == "quick"]


def _id(entry):
    return "-".join(word[2:] if word.startswith("--") else word for word in entry.argv)


@pytest.mark.parametrize("entry", QUICK, ids=_id)
def test_golden(entry):
    assert goldens.problems(entry, goldens.run(entry, goldens.ROOT)) == []


GOOD = "quick 0 60 " + "ab" * 32 + " sclab verify --claim lr3 --p 3 --test-mode"


def test_registry_parses():
    # parse refuses a bad tier, digest or limit and a repeated argv
    assert {entry.tier for entry in goldens.load()} == set(goldens.TIERS)
    assert goldens.parse(f"# a comment\n\n{GOOD}  # and another\n") == [
        goldens.Entry("quick", 0, 60.0, "ab" * 32, ("sclab", "verify", "--claim", "lr3", "--p", "3", "--test-mode"))
    ]


@pytest.mark.parametrize("line, message", [
    (GOOD.replace("quick", "slow"), "tier 'slow'"),
    (GOOD.replace("ab" * 32, "ab" * 31), "is not a lowercase hex sha256"),
    (GOOD.replace("ab" * 32, "AB" * 32), "is not a lowercase hex sha256"),
    (GOOD.replace(" 60 ", " 0 "), "limit must be positive"),
    (GOOD.replace(" 60 ", " -1 "), "limit must be positive"),
    (GOOD.replace(" 0 ", " zero "), "exit 'zero' or limit '60' is not a number"),
    (GOOD.split(" sclab")[0], "expected tier, exit, limit, sha256 and a command"),
    (GOOD + "\n" + GOOD.replace("quick", "full"), "line 2: sclab verify --claim lr3 --p 3 --test-mode is listed twice"),
], ids=[
    "tier", "short-digest", "uppercase-digest", "zero-limit", "negative-limit",
    "exit-not-a-number", "no-command", "duplicate-argv",
])
def test_registry_refuses_a_malformed_line(line, message):
    with pytest.raises(ValueError, match=message):
        goldens.parse(line)


def _entry(argv, **fields):
    entry = goldens.Entry("quick", 0, 60.0, "0" * 64, tuple(argv.split()))
    return entry._replace(**fields)


def test_runner_names_the_command_of_each_failure():
    entry = _entry("sclab verify --claim lr3 --p 3 --test-mode")
    outcome = goldens.run(entry, goldens.ROOT)
    entry = entry._replace(sha256=hashlib.sha256(outcome.out).hexdigest())
    assert outcome.code == 0 and goldens.problems(entry, outcome) == []

    named = f"{entry}: "
    assert goldens.problems(entry._replace(sha256="1" * 64), outcome) == [
        f"{named}stdout sha256 {entry.sha256}, expected {'1' * 64}"
    ]
    assert goldens.problems(entry._replace(exit=1), outcome) == [f"{named}exit 0, expected 1"]
    stray = outcome._replace(err=b"process pool unavailable\n")
    assert goldens.problems(entry, stray) == [
        f"{named}unexpected stderr: 'process pool unavailable'"
    ]
    slow = outcome._replace(seconds=61.0)
    assert goldens.problems(entry, slow) == [f"{named}over its 60 s limit (61.00 s)"]


def test_runner_kills_a_run_at_its_limit():
    entry = _entry("sclab verify --claim thm1 --p 7 --r 1 --test-mode", limit=0.001)
    outcome = goldens.run(entry, goldens.ROOT)
    assert outcome.code is None
    assert goldens.problems(entry, outcome) == [
        f"{entry}: over its 0.001 s limit ({outcome.seconds:.2f} s)"
    ]


def test_runner_allows_stderr_only_on_an_expected_exit_2():
    entry = _entry("sclab verify --claim thm1 --p 7 --r 5 --test-mode", exit=2)
    outcome = goldens.run(entry, goldens.ROOT)
    assert outcome.code == 2 and outcome.err.startswith(b"error: ")
    entry = entry._replace(sha256=hashlib.sha256(outcome.out).hexdigest())
    assert goldens.problems(entry, outcome) == []


def test_differences_name_each_changed_command():
    a, b, c = (_entry(f"sclab scan --claim {claim} --test-mode") for claim in ("a1", "d2", "lr3"))
    same = goldens.Outcome(0, b"records\n", b"", 0.1)
    theirs = [
        same._replace(seconds=0.2),
        same._replace(out=b"other records\n", err=b"error\n"),
        same._replace(code=1),
    ]
    assert goldens.differences([a, b, c], [same] * 3, theirs) == [
        f"{b}: differs in stdout, stderr",
        f"{c}: differs in exit code",
    ]
