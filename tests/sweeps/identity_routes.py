"""The integer-route identity checks against the field-value references
in tests/identity_reference.py at scale (~10 s): 20 000 seeded draws per
identity and 2 000 seeded conjugate products must give the same bool, or
raise the same exception type.  Prints one line per identity and one for
the conjugate products; exits 1 on any disagreement.

    PYTHONPATH=src python tests/sweeps/identity_routes.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import identity_reference as ref  # noqa: E402
from sclab.hyperkernel import conjugate_product_congruence  # noqa: E402


def main() -> int:
    wrong = []
    for name in sorted(ref.IDENTITIES):
        bad, seen = ref.disagreements(name, 20000, seed=20240517)
        print(f"{name}: {len(bad)} of 20000 disagree; outcomes {seen}; {bad[:3]}")
        wrong += bad
    cases = ref.conjugate_cases(2000, seed=20240517)
    bad = [
        case for case in cases
        if ref.outcome(conjugate_product_congruence, case)
        is not ref.outcome(ref.conjugate_product_congruence, case)
    ]
    print(f"conjugate products: {len(bad)} of {len(cases)} disagree; {bad[:3]}")
    return int(bool(wrong or bad))


if __name__ == "__main__":
    sys.exit(main())
