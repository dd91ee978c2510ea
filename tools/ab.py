"""In-process A/B timing of two source trees on one benchmark workload.

Usage: python3 tools/ab.py PARENT_SRC CHANGE_SRC --workload NAME [--reps N] [--rounds R]

PARENT_SRC and CHANGE_SRC are directories that hold a ``rayleighsums``
package, such as the ``src`` of two checkouts. The requests are every
request the workload can produce, ``all_requests()`` of
``bench/workloads.py``. Each of the R rounds imports both trees in turn,
the parent first in even rounds and the change first in odd ones, and
runs each request N times through ``cli.run`` on a side before the other
side; ``rayleighsums*`` is purged from ``sys.modules`` between the sides,
so each runs its own code. Timing both trees in one process, alternated,
keeps a whole-run change of the host's speed out of the ratio.

Prints, per request, the best of the N * R runs of each side in
milliseconds and the ratio change / parent, then the sums of the bests.
Exits 1 if the two trees' stdout or exit codes differ on any request.

An A/A run, on two identical copies of one tree, reads a sum-of-bests
ratio of about 1.02, with per-request ratios up to about 1.03; the
cause of this bias is not known. A ratio within 3 % of 1 is therefore
unresolved: it shows no change in either direction.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import sys
from pathlib import Path
from time import perf_counter

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def workload_requests(name: str) -> list:
    """``WORKLOADS[name].all_requests()`` of bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("_ab_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return module.WORKLOADS[name].all_requests()


def _purge() -> None:
    for key in [k for k in sys.modules if k == "rayleighsums" or k.startswith("rayleighsums.")]:
        del sys.modules[key]


def _run_side(src: str, requests, reps: int, best: list, seen: list) -> None:
    """Run every request ``reps`` times on the tree at ``src``; lower
    ``best`` and record each request's (exit code, stdout) in ``seen``."""
    _purge()
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("rayleighsums.cli")
        for i, argv in enumerate(requests):
            for _ in range(reps):
                out = io.StringIO()
                t = perf_counter()
                rc = cli.run(list(argv), stdout=out, stderr=io.StringIO())
                best[i] = min(best[i], perf_counter() - t)
            seen[i] = (rc, out.getvalue())
    finally:
        sys.path.remove(src)
        _purge()


def compare(parent: str, change: str, requests, reps: int = 5, rounds: int = 3) -> list:
    """Per request: (parent best s, change best s, same exit code and
    stdout on both sides)."""
    sides = (parent, change)
    best = [[float("inf")] * len(requests) for _ in sides]
    seen = [[None] * len(requests) for _ in sides]
    for r in range(rounds):
        for s in (0, 1) if r % 2 == 0 else (1, 0):
            _run_side(sides[s], requests, reps, best[s], seen[s])
    return [(p, c, sp == sc) for p, c, sp, sc in zip(*best, *seen)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=3)
    ns = ap.parse_args(argv)
    if ns.reps < 1 or ns.rounds < 1:
        ap.error("--reps and --rounds must be >= 1")
    requests = workload_requests(ns.workload)
    rows = compare(str(Path(ns.parent).resolve()), str(Path(ns.change).resolve()), requests, ns.reps, ns.rounds)
    print(f"{'parent ms':>10} {'change ms':>10} {'ratio':>7}  request")
    for argv, (p, c, same) in zip(requests, rows):
        flag = "" if same else "  OUTPUT DIFFERS"
        print(f"{1e3 * p:10.3f} {1e3 * c:10.3f} {c / p:7.3f}  {' '.join(argv)}{flag}")
    tp, tc = sum(r[0] for r in rows), sum(r[1] for r in rows)
    print(f"{1e3 * tp:10.3f} {1e3 * tc:10.3f} {tc / tp:7.3f}  total of the bests")
    return 0 if all(r[2] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
