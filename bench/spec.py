"""What each workload runs, as plain data.

Standard library only: the orchestrator and the set-up timing read this
module before the package under test is imported.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep6", "cold6", "enumcheck", "verify")

# rounding tolerance of the count and table commands (their --tolerance default)
TOLERANCE = 1e-3

SWEEP6_P = 61
SWEEP6_METHODS = ("koblitz", "greene", "miyatani")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


COLD6_PRIMES = tuple(p for p in range(1009, 4004) if p % 6 == 1 and _is_prime(p))
# Pass r runs every COLD6_STRIDE-th prime counted down from the top, starting at
# a bit-reversed offset, so no prime repeats within a run, every pass spans
# the whole range, and pass 0 always contains q = 4003.
COLD6_STRIDE = 16
# Each prime has a pool of deformation values drawn uniformly from its
# nonsingular ones; the recorded reference counts cover every pool member.
COLD6_POOL = 16

# (degree, p, e): the four table configurations with enumeration on
ENUMCHECK_CONFIGS = ((3, 61, 1), (4, 7, 2), (5, 31, 1), (6, 13, 1))


def all_methods(degree: int) -> tuple[str, ...]:
    """What --methods all runs: enumeration, then every character route the degree has."""
    return ("brute", "koblitz") + (("greene",) if degree >= 4 else ()) + (("miyatani",) if degree == 6 else ())



def _as_prime_power(q: int) -> tuple[int, int] | None:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


# every prime power q = 1 mod 6 from 7 to 130, including 25, 49 and 121
VERIFY_FIELDS = tuple(
    pe for pe in map(_as_prime_power, range(7, 131, 6)) if pe is not None
)

# Fields each command builds once before its first op; the set-up time is
# the package import plus these builds.  cold6 and verify build their field
# inside every op, as one command per op does.
SETUP_FIELDS = {
    "sweep6": ((SWEEP6_P, 1),),
    "cold6": (),
    "enumcheck": tuple((p, e) for _, p, e in ENUMCHECK_CONFIGS),
    "verify": (),
}

# Passes per run are fixed work, sized so that a run of run_seconds lasts
# about that long at the baseline; a faster program then finishes the same
# work sooner, and op counts and the tail percentile stay comparable.
NOMINAL_PASS_S = {"sweep6": 3.75, "cold6": 3.15, "enumcheck": 2.55, "verify": 2.8}


def passes_for(workload: str, seconds: float) -> int:
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    return min(passes, COLD6_STRIDE) if workload == "cold6" else passes


def _bitrev(r: int, bits: int) -> int:
    return int(format(r, f"0{bits}b")[::-1], 2)


def cold6_primes(pass_index: int) -> list[int]:
    bits = COLD6_STRIDE.bit_length() - 1
    offset = _bitrev(pass_index % COLD6_STRIDE, bits)
    top = len(COLD6_PRIMES) - 1
    return sorted(COLD6_PRIMES[i] for i in range(top - offset, -1, -COLD6_STRIDE))


def cold6_pool(q: int) -> list[int]:
    nonsingular = [lam for lam in range(1, q) if pow(lam, 6, q) != 1]
    return random.Random(q).sample(nonsingular, COLD6_POOL)


def cold6_ops(seed: int, pass_index: int) -> list[tuple[int, int]]:
    """(q, lambda) for every op of one pass; the seed picks each lambda."""
    rng = random.Random(f"cold6:{seed}:{pass_index}")
    return [(q, rng.choice(cold6_pool(q))) for q in cold6_primes(pass_index)]
