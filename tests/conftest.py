from __future__ import annotations

import random

import pytest

from rookbench.field import M61, FieldMatrix, PrimeField, mat_mul, mat_random


@pytest.fixture
def gf101():
    return PrimeField(101)


@pytest.fixture
def gf_m61():
    return PrimeField(M61)


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def scalar(v: int) -> FieldMatrix:
    return FieldMatrix(1, 1, [v])


def zeros(rows: int, cols: int) -> FieldMatrix:
    return FieldMatrix(rows, cols, [0] * (rows * cols))


def identity(n: int) -> FieldMatrix:
    return FieldMatrix(n, n, [int(i == j) for i in range(n) for j in range(n)])


def from_rows(rows) -> FieldMatrix:
    """The matrix of a list of equal-length rows; ragged rows raise ValueError."""
    cols = len(rows[0]) if rows else 0
    if any(len(r) != cols for r in rows):
        raise ValueError("ragged rows")
    return FieldMatrix(len(rows), cols, [x for r in rows for x in r])


def to_rows(m: FieldMatrix) -> list[list[int]]:
    return m.data.tolist()


def direct_products(field, inputs):
    """The uncoded oracle: one schoolbook product per input pair."""
    return [mat_mul(field, a, b) for a, b in inputs]


def interpolation_charge(L: int, wanted: int) -> tuple[int, int]:
    """(muls, invs) field.interpolation_weights' docstring charges for L
    points and `wanted` coefficients: M(z), M''s coefficients, the power
    rows, the schoolbook product, the scaling, and one inversion per point."""
    muls = L * (L - 1) // 2 + (L - 1) + L * (L - 1) + (wanted + 1) * L * L + wanted * L
    return muls, L


def reference_pow(p: int, x: int, e: int) -> tuple[int, int]:
    """Left-to-right square-and-multiply: (x^e mod p, multiplications)."""
    if e == 0:
        return 1, 0
    muls = 0
    result = x % p
    for bit in bin(e)[3:]:
        result = result * result % p
        muls += 1
        if bit == "1":
            result = result * x % p
            muls += 1
    return result, muls


def gap_powers(field, exponents, x: int, counter=None) -> list[int]:
    """Oracle gap powers x^{e_0}, x^{e_1 - e_0}, ... run by square-and-multiply;
    `counter` is charged their multiplications, delta's share of them."""
    out = []
    prev = 0
    for e in exponents:
        value, muls = reference_pow(field.modulus, x, e - prev)
        out.append(value)
        if counter is not None:
            counter.mul_count += muls
        prev = e
    return out


def random_inputs(field, n, dims, seed):
    """n random (A_i, B_i) pairs of rows x inner and inner x cols blocks."""
    r = rng(seed)
    rows, inner, cols = dims
    return [
        (mat_random(field, rows, inner, r), mat_random(field, inner, cols, r))
        for _ in range(n)
    ]


def naive_min_recovery(n: int, max_exponent: int):
    # Independent recursive enumerator with the literal decodability triple loop.
    def tails(start, left):
        if left == 0:
            yield ()
            return
        for v in range(start, max_exponent + 1):
            for rest in tails(v + 1, left - 1):
                yield (v,) + rest

    best = None
    for tp in tails(1, n - 1):
        p = (0,) + tp
        for tq in tails(1, n - 1):
            q = (0,) + tq
            good = True
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        if p[k] + q[k] == p[i] + q[j] and (i, j) != (k, k):
                            good = False
            if good:
                l = len({pi + qj for pi in p for qj in q})
                best = l if best is None else min(best, l)
    return best
