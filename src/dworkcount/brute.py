"""Character-free projective point counts, the ground truth everything
else is compared against.

projective_count enumerates the points of P^(n-1)(F_q) in normalized form
(first nonzero coordinate equal to 1), so each point is visited exactly
once; polynomials are lists of (coefficient, exponent-vector) monomials,
evaluated through the field's dlog tables in vectorized chunks.
dwork_counts_by_lambda counts every fibre of the Dwork family at once from
exact integer histograms of (sum x_i**d, prod x_i) and is held against
projective_count in the tests.  No character sums, floats or algebraic
identities are involved anywhere in this module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadDegreeError, BudgetExceededError, NotHomogeneousError
from .field import FqElem, FqField

ENUMERATION_BUDGET = 10**9

Monomial = tuple[FqElem, tuple[int, ...]]


def projective_count(field: FqField, monomials: list[Monomial], nvars: int, *, chunk: int = 1 << 20) -> int:
    """Number of points of {poly = 0} in P^(nvars-1)(F_q).

    An empty monomial list means the zero polynomial, whose locus is all of
    projective space.  All monomials must share one total degree.
    """
    degs = {sum(exps) for _, exps in monomials}
    if len(degs) > 1:
        raise NotHomogeneousError(f"mixed total degrees {sorted(degs)}")
    if any(len(exps) != nvars for _, exps in monomials):
        raise NotHomogeneousError("exponent vector length does not match nvars")
    if field.q ** (nvars - 1) > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"q**(nvars-1) = {field.q**(nvars-1)} exceeds {ENUMERATION_BUDGET}"
        )
    mons = [(c.id, exps) for c, exps in monomials if not c.is_zero]
    total = 0
    for lead in range(nvars):
        total += _stratum_count(field, mons, nvars, lead, chunk)
    return total


def _stratum_count(field: FqField, mons, nvars: int, lead: int, chunk: int) -> int:
    """Points with x_0 = ... = x_{lead-1} = 0, x_lead = 1, the rest free."""
    q = field.q
    nfree = nvars - lead - 1
    npoints = q**nfree
    if not mons:
        return npoints
    count = 0
    for start in range(0, npoints, chunk):
        stop = min(start + chunk, npoints)
        flat = np.arange(start, stop, dtype=np.int64)
        coords: list[np.ndarray | None] = [None] * nvars
        rest = flat
        for v in range(nvars - 1, lead, -1):
            coords[v] = rest % q
            rest = rest // q
        acc = np.zeros(stop - start, dtype=np.int64)  # running sum of monomials, as ids
        for coeff_id, exps in mons:
            vals = _monomial_values(field, coords, lead, coeff_id, exps)
            acc = field.add_id_arrays(acc, vals)
        count += int(np.count_nonzero(acc == 0))
    return count


def _monomial_values(field: FqField, coords, lead: int, coeff_id: int, exps) -> np.ndarray:
    q1 = field.q1
    dlog = field.dlog_table
    n = len(coords)
    shape = None
    for v in range(lead + 1, n):
        shape = coords[v].shape
        break
    exp_acc = np.zeros(shape if shape else (1,), dtype=np.int64)
    nonzero = np.ones(shape if shape else (1,), dtype=bool)
    exp_acc += dlog[coeff_id]
    for v, d in enumerate(exps):
        if d == 0:
            continue
        if v < lead:
            return np.zeros(shape if shape else (1,), dtype=np.int64)  # a zero coordinate
        if v == lead:
            continue  # x_lead = 1 contributes nothing
        dl = dlog[coords[v]]
        nonzero &= dl >= 0
        exp_acc += d * dl
    ids = field.exp_table[exp_acc % q1]
    return np.where(nonzero, ids, 0)


def dwork_polynomial(field: FqField, degree: int, lam: FqElem) -> list[Monomial]:
    """x_1**d + ... + x_d**d - d*lam*x_1*...*x_d in d variables."""
    one = field.one
    mons: list[Monomial] = []
    for i in range(degree):
        exps = [0] * degree
        exps[i] = degree
        mons.append((one, tuple(exps)))
    coeff = -(field.elem(degree) * lam)
    mons.append((coeff, (1,) * degree))
    return mons


def deformed_diagonal_polynomial(field: FqField, d: int, h: tuple[int, ...], lam: FqElem) -> list[Monomial]:
    """x_1**d + ... + x_n**d - d*lam*x**h for a general weight vector h."""
    n = len(h)
    one = field.one
    mons: list[Monomial] = []
    for i in range(n):
        exps = [0] * n
        exps[i] = d
        mons.append((one, tuple(exps)))
    coeff = -(field.elem(d) * lam)
    mons.append((coeff, tuple(h)))
    return mons


def dwork_counts_by_lambda(field: FqField, degree: int) -> np.ndarray:
    """Point count of the degree-d family member for every lambda, d >= 3.

    Returns an integer array indexed by the element id of lambda, from exact
    int64 histograms; no point is visited.  A point with a zero coordinate
    lies on every fibre if S = sum x_i**d = 0 and on none otherwise; a point
    of units, scaled to x_1 = 1, lies on the one fibre lambda = S / (d P),
    P = prod x_i.  With g = gcd(d, q-1) and m = (q-1)/g, x**d depends only on
    dlog x mod m, and a d-th root of unity times x_2 moves lambda through its
    coset, so the count depends on lambda only through dlog lambda mod m.
    H_k[s, t] counts the k-tuples of units with sum x_i**d = s and
    dlog prod x_i = t mod m, each residue standing for g units; the last
    coordinate is added cell by cell, so H_(d-1) is never stored.
    """
    q, q1 = field.q, field.q1
    if q ** (degree - 1) > ENUMERATION_BUDGET:
        raise BudgetExceededError("enumeration larger than the budget")
    if field.elem(degree).is_zero:
        raise BadDegreeError("degree divisible by the characteristic")
    if degree < 3:
        raise BadDegreeError("the histograms start from two unit coordinates")
    g = math.gcd(degree, q1)
    m = q1 // g
    r = np.arange(m, dtype=np.int64)
    pow_d = field.exp_table[r * degree % q1]  # id of x**d for dlog x = r mod m
    minus_one = int(field.neg_table[1])
    # dlog(lambda * P') mod m on the fibre of (1 : x_2 : ... : x_d), by the id of
    # S' = x_2**d + ... + x_d**d; junk at S' = -1, which lies on lambda = 0
    lam_key = (field.dlog_table[field.add_id_arrays(np.arange(q), 1)] - field.elem(degree).exp) % m
    s, t, w = pow_d, r, np.full(m, g, dtype=np.int64)  # the cells of H_1
    on_minus_one = [0, int(w[s == minus_one].sum())]  # sum_t H_k[-1, t] for k = 0, 1
    for _ in range(degree - 3):
        h = _add_coordinate(field, s, t, g * w, pow_d, lambda s2, t2: s2 * m + t2, q * m).reshape(q, m)
        s, t = np.nonzero(h)
        w = h[s, t]
        on_minus_one.append(int(h[minus_one].sum()))
    lam_keys = lambda s2, t2: np.where(s2 == minus_one, m, (lam_key[s2] - t2) % m)  # key m: lambda = 0
    last = _add_coordinate(field, s, t, w, pow_d, lam_keys, m + 1)
    on_minus_one.append(g * int(last[m]))
    # H_k[-1, :] sums to the points with k + 1 given unit coordinates, the rest
    # 0, and S = 0: on every fibre for k + 1 < d, on lambda = 0 for k + 1 = d
    counts = np.full(q, sum(math.comb(degree, k + 1) * c for k, c in enumerate(on_minus_one[:-1])))
    counts[0] += on_minus_one[-1]
    counts[field.exp_table] += np.tile(last[:m], g)
    return counts


def _add_coordinate(field: FqField, s, t, w, pow_d, key, size: int) -> np.ndarray:
    """Spread each cell (s, t) of weight w over the m residues of one more
    unit coordinate and sum the weights by key(s', t'), in int64."""
    m = len(pow_d)
    out = np.zeros(size, dtype=np.int64)
    step = max(1, (1 << 18) // m)
    for i in range(0, len(s), step):
        s2 = field.add_id_arrays(s[i : i + step, None], pow_d)
        t2 = (t[i : i + step, None] + np.arange(m)) % m
        np.add.at(out, key(s2, t2), np.broadcast_to(w[i : i + step, None], s2.shape))
    return out
