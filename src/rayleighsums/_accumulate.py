"""The one exact kernel behind every fixed-nu convolution sum.

The fixed-nu table recurrences (sigma, tau, Kummer S), fixed-nu series
products and ``series_divide`` all sum rows

    sum_t w_t x_{i+t} y_{j-t}

over rational sequences, most of which grow one entry per row. Sharing
this arithmetic does not couple the recurrence route to the oracle route:
neither sees the other's terms or denominators. Symbolic nu never comes
here: the symbolic tables, the symbolic oracle and the symbolic ODE
residual run on integer polynomials over a-priori denominators
(``ratfunc.FactorPowers``), and bare symbolic series sum ``RatFuncNu``
products with its operators.

``Nested`` keeps a sequence x_k = a_k / b_k (canonical) on nested running
lcm denominators: B_k = lcm(b_0, ..., b_k), the numerator A_k = a_k B_k /
b_k and the step beta_k = B_k / B_{k-1} (beta_0 = B_0). Appending an entry
costs one gcd, so a table of order n takes n gcds, not n^2. The
denominators of the fixed-nu tables and series nearly nest, so A_k is
barely larger than a_k and beta_k is small.

``row`` walks one sum on a common denominator T. The scale s_t =
T / (B^x_{i+t} B^y_{j-t}) of term t steps to

    s_{t+1} = s_t beta^y_{j-t} / beta^x_{i+t+1},

the fixed-nu analogue of ``ratfunc.CofactorWalk``. Only when the division
is not exact does T grow, by beta^x / gcd(s_t beta^y, beta^x), rescaling the
running numerator once. Each term is then one big numerator product and
linear work on small ints, and the row is reduced once, by the caller's
``Fraction``, to the same canonical value a ``Fraction`` sum gives.
"""

from __future__ import annotations

from math import gcd

__all__ = ["Nested", "row", "self_row"]


class Nested:
    """A rational sequence on nested running-lcm denominators.

    ``values[k]`` is the k-th entry as given (a ``Fraction`` or ``int``),
    ``dens[k]`` = lcm of the entry denominators through k, ``nums[k]`` =
    values[k] * dens[k], and ``steps[k]`` = dens[k] / dens[k-1]
    (``steps[0]`` = dens[0]).
    """

    __slots__ = ("values", "nums", "dens", "steps")

    def __init__(self, values=()):
        self.values, self.nums, self.dens, self.steps = [], [], [], []
        for v in values:
            self.append(v)

    def __len__(self) -> int:
        return len(self.values)

    def append(self, value) -> None:
        a, b = value.numerator, value.denominator
        if self.dens:
            prev = self.dens[-1]
            g = gcd(prev, b)
            step = b // g
            a *= prev // g
            b = prev * step
        else:
            step = b
        self.values.append(value)
        self.nums.append(a)
        self.dens.append(b)
        self.steps.append(step)


def row(x: Nested, i: int, y: Nested, j: int, weights) -> tuple[int, int]:
    """(acc, den) with acc / den = sum_t weights[t] x[i+t] y[j-t] over
    t < len(weights), for int weights; den > 0 and the pair is not
    reduced."""
    if not weights:
        return 0, 1
    xa, xs, ya, ys = x.nums, x.steps, y.nums, y.steps
    den = x.dens[i] * y.dens[j]
    acc = weights[0] * xa[i] * ya[j]
    s = 1
    for t in range(1, len(weights)):
        s *= ys[j - t + 1]
        d = xs[i + t]
        if d != 1:
            q, r = divmod(s, d)
            if r:
                g = gcd(s, d)
                grow = d // g
                acc *= grow
                den *= grow
                q = s // g
            s = q
        acc += xa[i + t] * ya[j - t] * (weights[t] * s)
    return acc, den


def self_row(seq: Nested, s: int) -> tuple[int, int]:
    """``row`` for sum_{m=1}^{s-1} seq[m-1] seq[s-m-1], s >= 2, summed
    over m <= s/2 with the off-centre terms weighted 2."""
    half = s // 2
    weights = [2] * half
    if s % 2 == 0:
        weights[-1] = 1
    return row(seq, 0, seq, s - 2, weights)
