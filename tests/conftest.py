from __future__ import annotations

import random

import pytest

from rookbench.field import M61, FieldMatrix, PrimeField, mat_mul


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
