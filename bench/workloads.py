"""The three benchmark workloads, as CLI argument lists built from a seed.

Each workload states, per parameter, a small set of exact rational values
of the same height. ``--seed`` picks one value from each set, so different
seeds exercise different inputs of comparable cost; the program only ever
sees the generated argument lists.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

# Tau weights (a, b, c): the six orderings of 1, 2, 3.
TAU_WEIGHTS = tuple(itertools.permutations(("1", "2", "3")))


def _weights(abc) -> list[str]:
    a, b, c = abc
    return ["--a", a, "--b", b, "--c", c]


@dataclass(frozen=True)
class Workload:
    name: str
    choices: dict  # parameter -> tuple of the values a seed may pick
    build: Callable[[dict], list]

    def requests(self, seed: int) -> list[list[str]]:
        rng = random.Random(seed)
        return self.build({k: rng.choice(self.choices[k]) for k in sorted(self.choices)})

    def all_requests(self) -> list[list[str]]:
        """Every distinct request any seed can produce, in a stable order."""
        keys = sorted(self.choices)
        seen: dict = {}
        for combo in itertools.product(*(self.choices[k] for k in keys)):
            for argv in self.build(dict(zip(keys, combo))):
                seen.setdefault(tuple(argv), None)
        return [list(a) for a in seen]


def _symbolic_verify(p):
    w = _weights(p["abc"])
    return [
        ["verify", "--family", "sigma", "--order", "20", "--nu", "symbolic"],
        ["verify", "--family", "tau", *w, "--order", "16", "--nu", "symbolic"],
        ["ode-check", *w, "--order", "20", "--nu", "symbolic"],
        ["sums", "sigma", "--order", "36", "--nu", "symbolic", "--format", "json"],
    ]


def _zero_search(p):
    zeros = ["--count", "30", "--precision", "1/100000", "--format", "json"]
    return [
        ["zeros", "--family", "bessel", "--nu", p["bessel_nu_low"], *zeros],
        ["zeros", "--family", "bessel", "--nu", p["bessel_nu_high"], *zeros],
        ["zeros", "--family", "mercer", "--a", "0", "--b", "1", "--c", p["mercer_c"],
         "--nu", "1", *zeros, "--assert-real-zeros"],
        ["bounds", "--family", "sigma", "--nu", p["bounds_nu"], "--order", "60",
         "--root-width", "1/1000000000", "--format", "json"],
    ]


def _fixed_tables(p):
    chf = ["--a", "-2", "--b", p["chf_b"]]
    return [
        ["sums", "sigma", "--order", "300", "--nu", p["sigma_nu"], "--format", "json"],
        ["verify", "--family", "sigma", "--order", "200", "--nu", p["verify_nu"]],
        ["verify", "--family", "tau", *_weights(p["abc"]), "--nu", p["tau_nu"],
         "--order", "120"],
        ["verify", "--family", "chf", *chf, "--order", "300"],
        ["sums", "chf", *chf, "--order", "400", "--format", "json"],
        ["sums", "sigma", "--order", "60", "--nu", p["decimal_nu"], "--decimal", "60"],
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "symbolic_verify",
            {"abc": TAU_WEIGHTS},
            _symbolic_verify,
        ),
        Workload(
            "zero_search",
            {
                "bessel_nu_low": ("0", "1/2", "1"),
                "bessel_nu_high": ("2", "5/2", "3"),
                "mercer_c": ("0", "1", "2"),
                "bounds_nu": ("1/3", "2/3", "4/3", "5/3"),
            },
            _zero_search,
        ),
        Workload(
            "fixed_tables",
            {
                "sigma_nu": ("2/3", "4/3", "5/3"),
                "verify_nu": ("1/5", "2/5", "3/5", "4/5"),
                "abc": TAU_WEIGHTS,
                "tau_nu": ("1/2", "3/2"),
                "chf_b": ("5/3", "7/3"),
                "decimal_nu": ("1/2", "3/2", "5/2"),
            },
            _fixed_tables,
        ),
    )
}
