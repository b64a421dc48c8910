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


def to_rows(m: FieldMatrix) -> list[list[int]]:
    return [m.row(i) for i in range(m.rows)]


def direct_products(field, inputs):
    """The uncoded oracle: one schoolbook product per input pair."""
    return [mat_mul(field, a, b) for a, b in inputs]
