"""Exponent-set generators and validity checks for batch matmul codes.

A code here is a pair of strictly increasing exponent lists (P, Q) of equal
size n.  The pair is decodable when every diagonal sum p_k + q_k occurs
exactly once among all n^2 cross sums, and the recovery threshold of the
resulting scheme is |P+Q|, the number of distinct sums.

Three generators are provided: the quadratic-threshold pair (p_i = i,
q_j = n*j), the base-3 digit construction (threshold 3^ceil(log2 n)), and a
digit-shell construction built from constant-norm digit vectors in a
carry-free base, which is 3-AP-free and therefore decodable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

_JSON_INT_MAX = 1 << 53  # JSON numbers are exact only up to 2^53


class ParameterSearchExhausted(Exception):
    """No digit-shell parameters within bounds produce enough elements."""


class SearchBudgetExceeded(Exception):
    """Brute-force search guard tripped (n or exponent budget too large)."""


@dataclass(frozen=True)
class ExponentPair:
    """Exponent lists (P, Q), each strictly increasing, |P| = |Q| = n."""

    n: int
    p: tuple
    q: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name, seq in (("p", self.p), ("q", self.q)):
            if len(seq) != self.n:
                raise ValueError(f"|{name}| = {len(seq)} != n = {self.n}")
            if any(v < 0 for v in seq):
                raise ValueError(f"{name} has negative exponents")
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"{name} must be strictly increasing")

    @property
    def max_exponent(self) -> int:
        return max(self.p[-1], self.q[-1])

    def to_json_dict(self) -> dict:
        def enc(v):
            return v if v < _JSON_INT_MAX else str(v)

        return {
            "n": self.n,
            "p": [enc(v) for v in self.p],
            "q": [enc(v) for v in self.q],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExponentPair":
        """Read what to_json_dict writes; any other value (a float, a bool) raises ValueError."""
        if type(d["p"]) is not list or type(d["q"]) is not list:
            raise ValueError("p and q must be lists")
        for v in (d["n"], *d["p"], *d["q"]):
            if not (type(v) is int or (isinstance(v, str) and v.isascii() and v.isdigit())):
                raise ValueError(f"{v!r} is neither an integer nor a decimal string")
        return cls(n=int(d["n"]), p=tuple(map(int, d["p"])), q=tuple(map(int, d["q"])))


@dataclass(frozen=True)
class SumSupport:
    """Sorted distinct sums of P+Q and, per k, where p_k + q_k lands."""

    support: tuple
    diag_index: tuple

    @property
    def L(self) -> int:
        return len(self.support)


def poly_code_exponents(n: int) -> ExponentPair:
    """P = {0..n-1}, Q = {0, n, ..., n(n-1)}; threshold exactly n^2."""
    return ExponentPair(n=n, p=tuple(range(n)), q=tuple(n * j for j in range(n)))


def base3_exponents(n: int) -> ExponentPair:
    """The n smallest integers whose base-3 digits are all 0 or 1.

    For n = 2^l this is exactly the digit vectors of length l and the
    threshold is 3^l; other n take the n smallest elements of the
    ceil(log2 n) construction, which stays decodable since any subset of a
    3-AP-free set is 3-AP-free.
    """
    vals = []
    for k in range(n):
        v = 0
        scale = 1
        while k:
            if k & 1:
                v += scale
            scale *= 3
            k >>= 1
        vals.append(v)
    p = tuple(vals)
    return ExponentPair(n=n, p=p, q=p)


# --- digit-shell (Behrend-style) construction ------------------------------

# Digits range over {0..d-1} so pairwise digit sums stay < 2d-1 and addition
# in base 2d-1 is carry-free; constant squared norm then forbids 3-APs.

_VALUE_CAP = (1 << 61) - 2  # keep generated exponents bindable to GF(2^61-1)


def _ways_table(d: int, length: int) -> np.ndarray:
    """ways[j, r] = vectors of length j over {0..d-1} with squared norm r.

    Entries count at most d^length vectors, so they are int64 below 2^63 and
    exact Python ints above it.
    """
    top = (d - 1) ** 2
    dtype = np.int64 if d**length < 1 << 63 else object
    ways = np.zeros((length + 1, length * top + 1), dtype=dtype)
    ways[0, 0] = 1
    for j in range(1, length + 1):
        prev = ways[j - 1, : (j - 1) * top + 1]
        for v in range(d):
            ways[j, v * v : v * v + prev.size] += prev
    return ways


def _smallest_shell_values(ways: np.ndarray, d: int, count: int) -> list:
    """The `count` smallest base-(2d-1) values of the largest shell in `ways`.

    The largest shell is the first maximum of the table's last row, so ties
    keep the smallest norm.  Digits are fixed most-significant first, each
    prefix followed by its next digit in increasing order, so values stay
    sorted; after each digit only the shortest run of prefixes whose
    completions reach `count` is kept.
    """
    length = len(ways) - 1
    base = 2 * d - 1
    squares = np.arange(d) ** 2
    digits = np.arange(d, dtype=np.int64 if base**length < 1 << 63 else object)
    rems = np.array([np.argmax(ways[-1])])
    vals = digits[:1]
    for pos in range(length - 1, -1, -1):
        rems = (rems[:, None] - squares).ravel()
        vals = (vals[:, None] + digits * base**pos).ravel()
        fit = rems >= 0
        rems, vals = rems[fit], vals[fit]
        completions = ways[pos][rems]
        fit = completions > 0
        rems, vals = rems[fit], vals[fit]
        keep = int(np.searchsorted(np.cumsum(completions[fit]), count)) + 1
        rems, vals = rems[:keep], vals[:keep]
    return vals.tolist()


def _first_viable(n: int, length: int, d_lo: int, d_top: int):
    """Smallest d in [d_lo, d_top] whose largest shell holds n vectors, with its table.

    The largest shell of {0..d-1}^length never shrinks as d grows (each
    norm-k shell sits inside the norm-k shell of the bigger cube), so this
    gallops up from d_lo (d_lo, +1, +3, +7, ...) and bisects the last
    bracket.  Starting low keeps the tables small when n is small.  Returns
    None when no d in range is viable.
    """
    lo, step = d_lo, 1
    while lo <= d_top:
        hi = min(d_lo + step - 1, d_top)
        ways = _ways_table(hi, length)
        if ways[-1].max() >= n:
            break
        lo, step = hi + 1, 2 * step
    else:
        return None
    while lo < hi:  # every d < lo is too small, hi is viable
        mid = (lo + hi) // 2
        mid_ways = _ways_table(mid, length)
        if mid_ways[-1].max() >= n:
            hi, ways = mid, mid_ways
        else:
            lo = mid + 1
    return hi, ways


def behrend_exponents(
    n: int,
    digit_range: int | None = None,
    length: int | None = None,
) -> ExponentPair:
    """3-AP-free exponent set from constant-norm digit vectors, P = Q.

    With explicit (digit_range, length) = (d, l), enumerates {0..d-1}^l,
    groups by squared norm, takes the largest shell (smallest norm on ties)
    and maps its n smallest vectors through base 2d-1.  Without them, takes
    for each l the smallest d whose largest shell holds n vectors, and keeps
    the candidate whose generated set realizes the smallest |P+P| (ties:
    smaller max element, then smaller l, d).

    Raises ParameterSearchExhausted when no candidate within bounds has a
    shell of size >= n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    if (digit_range is None) != (length is None):
        raise ValueError("digit_range and length must be given together")

    if digit_range is not None:
        d = digit_range
        ways = _ways_table(d, length) if d >= 2 and length >= 1 and d**length >= n else None
        if ways is None or ways[-1].max() < n:
            raise ParameterSearchExhausted(f"no shell of size >= {n} for d={d}, l={length}")
        p = tuple(_smallest_shell_values(ways, d, n))
        return ExponentPair(n=n, p=p, q=p)

    best = None  # ((realized_L, max_element, l, d), values)
    log2n = math.log2(n) if n > 1 else 1.0
    max_len = max(math.ceil(2 * math.sqrt(log2n)) + 2, math.ceil(log2n) + 4)
    for ell in range(2, max_len + 1):
        d_lo = max(2, math.ceil(n ** (1.0 / ell)))
        d_top = max(d_lo, int((2e7 / (ell * ell)) ** (1.0 / 3.0)))
        while d_top >= d_lo and (2 * d_top - 1) ** ell - 1 > _VALUE_CAP:
            d_top -= 1
        found = _first_viable(n, ell, d_lo, d_top)
        if found is None:
            continue
        d, ways = found
        vals = _smallest_shell_values(ways, d, n)
        realized = len(_sumset(vals, vals)[0])
        key = (realized, vals[-1], ell, d)
        if best is None or key < best[0]:
            best = (key, vals)
    if best is None:
        raise ParameterSearchExhausted(f"no digit-shell parameters found for n={n}")
    p = tuple(best[1])
    return ExponentPair(n=n, p=p, q=p)


# --- validity checks --------------------------------------------------------


def _sumset(p, q, counts: bool = False):
    """Distinct sums of P + Q for strictly increasing P, Q.

    Returns (support, diag_index, diag_counts): the sorted distinct sums as
    an array, the position of each p_k + q_k in it, and with counts=True how
    many of the |P|*|Q| cross sums equal each p_k + q_k (else None).

    Sums are marked in a table over [p_0 + q_0, p_-1 + q_-1] unless that
    table would be bigger than the 8*|P|*|Q| bytes of all sums, in which case
    they are sorted.  Each row p_i + Q holds distinct sums, so a row's table
    indices never repeat.  When P = Q only the rows of the upper triangle
    j >= i are read; a diagonal sum 2*p_k is then met once on the diagonal
    and once per unordered pair, so its full count is twice that less one.
    Sums past int64 stay Python ints and are sorted.
    """
    same = p == q
    lo, hi = p[0] + q[0], p[-1] + q[-1]
    dtype = np.int64 if -(1 << 63) <= lo and hi < 1 << 63 else object
    pa = np.array(p, dtype=dtype)
    qa = pa if same else np.array(q, dtype=dtype)
    diag_sums = pa + qa
    tails = [qa[i:] if same else qa for i in range(len(p))]
    # a sum's count is at most min(|P|, |Q|), which int32 holds
    cell_bytes = 4 if counts else 1
    if dtype is np.int64 and (hi - lo + 1) * cell_bytes <= 8 * len(p) * len(q):
        table = np.zeros(hi - lo + 1, dtype=np.int32 if counts else bool)
        for pi, tail in zip(p, tails):
            if counts:
                table[(pi - lo) + tail] += 1
            else:
                table[(pi - lo) + tail] = True
        support = np.flatnonzero(table)
        sum_counts = table[support]
        support += lo
    else:
        support, sum_counts = np.unique(
            np.concatenate([pi + tail for pi, tail in zip(p, tails)]), return_counts=True
        )
    diag_index = np.searchsorted(support, diag_sums)
    if not counts:
        return support, diag_index, None
    diag_counts = sum_counts[diag_index]
    return support, diag_index, 2 * diag_counts - 1 if same else diag_counts


def _diag_multiplicities(pair: ExponentPair) -> list:
    """Multiplicity of each diagonal sum p_k + q_k among all cross sums."""
    return _sumset(pair.p, pair.q, counts=True)[2].tolist()


def is_decodable(pair: ExponentPair) -> bool:
    """True iff every diagonal sum occurs exactly once among all n^2 sums."""
    return all(m == 1 for m in _diag_multiplicities(pair))


def sum_support(pair: ExponentPair) -> SumSupport:
    """Sorted distinct sums of P+Q plus the position of each diagonal sum."""
    support, diag_index, _ = _sumset(pair.p, pair.q)
    return SumSupport(support=tuple(support.tolist()), diag_index=tuple(diag_index.tolist()))


def is_3ap_free(values) -> bool:
    """True iff no three distinct elements satisfy a + c = 2b.

    A + A counts 2b once as b + b and twice more for each such pair a < c,
    so the set is 3-AP-free iff every 2b occurs exactly once, which is the
    decodability of the pair (A, A).
    """
    a = sorted(values)
    if len(a) != len(set(a)):
        raise ValueError("elements must be distinct")
    if len(a) < 3:
        return True
    return all(m == 1 for m in _sumset(a, a, counts=True)[2].tolist())


def min_recovery_bruteforce(
    n: int,
    max_exponent: int,
    n_limit: int = 4,
    exponent_limit: int = 12,
):
    """Minimal |P+Q| over all decodable pairs with 0 in P and 0 in Q.

    Exhausts all strictly increasing n-subsets of {0..max_exponent}
    containing 0.  Returns (L_min, witness); the witness is the first pair
    in lexicographic order achieving the minimum.  Guards trip
    SearchBudgetExceeded since the space grows as C(max_exponent, n-1)^2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > n_limit or max_exponent > exponent_limit:
        raise SearchBudgetExceeded(
            f"n={n} (limit {n_limit}), max_exponent={max_exponent} "
            f"(limit {exponent_limit})"
        )
    if max_exponent < n - 1:
        raise ValueError("max_exponent too small to fit n distinct exponents")
    tails = list(combinations(range(1, max_exponent + 1), n - 1))
    best_l = None
    witness = None
    for tp in tails:
        p = (0,) + tp
        for tq in tails:
            q = (0,) + tq
            pair = ExponentPair(n=n, p=p, q=q)
            if not is_decodable(pair):
                continue
            l = len({pi + qj for pi in p for qj in q})
            if best_l is None or l < best_l:
                best_l = l
                witness = pair
    return best_l, witness
