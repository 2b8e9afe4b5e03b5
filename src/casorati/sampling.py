"""Deterministic random instance generation for the identity suite.

A trial's randomness is derived from (master seed, identity id, trial index)
alone, so any trial replays bit-for-bit regardless of execution order or
thread count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .poly import ExpPoly, Poly, _canonical
from .scalars import require_at_most

# The ranges of a drawn identity's n (its fs) and m (its us), both inclusive.
N_RANGE, M_RANGE = (0, 3), (1, 3)
GAMMA_CHOICES = (Fraction(1), Fraction(1, 2), Fraction(2))
EXP_PAIR_CHOICES = (Fraction(-1), Fraction(0), Fraction(1))
# Upper bounds of --trials and --max-degree (identities and idqm): on a 2-core
# x86_64 host 2000 identity-suite trials took 48 s, and 200 at degree 20 took
# 105 s, about 20 times as long as at the default degree 5.
MAX_TRIALS, MAX_DEGREE = 2000, 20


@dataclass(frozen=True)
class SamplerConfig:
    max_degree: int = 5
    coefficient_bound: int = 9
    trials: int = 200
    master_seed: int = 42

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        require_at_most("trials", self.trials, MAX_TRIALS)
        require_at_most("max_degree", self.max_degree, MAX_DEGREE)


def trial_rng(config: SamplerConfig, identity_id: str, trial: int) -> random.Random:
    """Sub-seeded stream for one trial (string-seeded: stable across runs)."""
    return random.Random(f"{config.master_seed}:{identity_id}:{trial}")


def random_poly(rng: random.Random, max_degree: int, bound: int,
                nonzero: bool = False) -> Poly:
    """A degree in [0, max_degree], then each coefficient as a numerator in
    [-bound, bound] over a denominator in [1, bound], drawn in that order;
    redrawn whole while zero when ``nonzero``."""
    while True:
        degree = rng.randint(0, max_degree)
        pairs = [(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(degree + 1)]
        den = lcm(*[d for _, d in pairs])
        p = _canonical([q * (den // d) for q, d in pairs], [0] * len(pairs), den)
        if not nonzero or not p.is_zero():
            return p


def random_exp_poly(rng: random.Random, max_degree: int, bound: int,
                    nonzero: bool = False) -> ExpPoly:
    return ExpPoly(random_poly(rng, max_degree, bound, nonzero),
                   rng.choice(EXP_PAIR_CHOICES), rng.choice(EXP_PAIR_CHOICES))


def random_gamma(rng: random.Random) -> Fraction:
    return rng.choice(GAMMA_CHOICES)
