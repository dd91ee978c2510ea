"""Regenerate reference.json for every request any seed can produce.

    python3 bench/make_reference.py

Records the sha256 digest of each mathematically unique output and, for
each zero search, the enclosures the program reports at a precision
10^5 times finer than the workload asks for. Every output must pass its
property checks before it is recorded.
"""

import io
import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
from rayleighsums import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NARROWING = 10**5


def _run_checked(argv):
    out = io.StringIO()
    rc = cli.run(argv, stdout=out)
    problems = checks.check(argv, rc, out.getvalue(), {"digests": {}, "zeros": {}})
    if problems:
        sys.exit(f"{' '.join(argv)}: {'; '.join(problems)}")
    return out.getvalue()


def main() -> None:
    reference = {"digests": {}, "zeros": {}}
    for workload in WORKLOADS.values():
        for argv in workload.all_requests():
            print(" ".join(argv), file=sys.stderr, flush=True)
            out = _run_checked(argv)
            key = checks.key(argv)
            if argv[0] == "zeros":
                i = argv.index("--precision") + 1
                finer = Fraction(argv[i]) / NARROWING
                narrow = argv[:i] + [f"{finer.numerator}/{finer.denominator}"] + argv[i + 1:]
                zeros = json.loads(_run_checked(narrow))["zeros"]
                reference["zeros"][key] = [[z["lo"], z["hi"]] for z in zeros]
            else:
                reference["digests"][key] = checks.digest(argv, out)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
