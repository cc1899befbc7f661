from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsync import _csvtext
from gsync._csvtext import column_fields, fields_text, matrix_text

from conftest import traced_peak

MAX = np.finfo(float).max
TINY = np.finfo(float).tiny


def reference(matrix) -> str:
    """The text of Python's % on every value: what matrix_text must match."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in np.asarray(matrix, dtype=float).tolist())


def text(matrix) -> str:
    return "".join(matrix_text(matrix))


def fields(values) -> list[str]:
    return text(np.asarray(values, dtype=float).reshape(-1, 1)).splitlines()


def bulk(kind: str, n: int, rng) -> np.ndarray:
    """n values of one family: raw bit patterns or numbers a program prints."""
    if kind == "bits":
        return rng.integers(0, 2 ** 64, size=n, dtype=np.uint64, endpoint=False).view(np.float64)
    if kind == "scaled":
        return rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    if kind == "decimal":
        return np.round(rng.normal(size=n) * 10.0 ** rng.integers(0, 12, size=n),
                        int(rng.integers(0, 10)))
    if kind == "dyadic":  # exact ties of the 17-digit rounding live here
        return rng.integers(-2 ** 53, 2 ** 53, size=n) / 2.0 ** rng.integers(0, 60, size=n)
    return rng.integers(-10 ** 6, 10 ** 6, size=n).astype(float)


@st.composite
def matrices(draw):
    cols = draw(st.integers(1, 20))
    rows = draw(st.integers(0, 3000))
    kind = draw(st.sampled_from(["bits", "scaled", "decimal", "dyadic", "integers"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = bulk(kind, rows * cols, rng)
    picked = draw(st.lists(st.integers(0, 2 ** 64 - 1), max_size=40))
    if len(values):
        at = rng.integers(0, len(values), size=len(picked))
        values[at] = np.array(picked, dtype=np.uint64).view(np.float64)
    return values.reshape(rows, cols)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(matrix=matrices())
def test_matches_python_percent_on_any_bit_patterns(matrix):
    assert text(matrix) == reference(matrix)


def test_exact_ties_round_half_even():
    assert fields([1234567890123456.25, 1234567890123456.75, -1234567890123456.25]) == [
        "1234567890123456.2", "1234567890123456.8", "-1234567890123456.2"]


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values]).reshape(-1, 2)
    assert text(values) == reference(values)


def test_fixed_and_exponent_switch_after_rounding():
    assert fields([99999999999999999.0, 1e16, 9.9999999999999995e-05, 1e-4, 1e-5]) == [
        "1e+17", "10000000000000000", "9.9999999999999991e-05", "0.0001", "1.0000000000000001e-05"]
    # float('1e-79') lies below 10**-79: its 17 digits carry into the exponent
    assert Decimal(1e-79) < Decimal("1e-79")
    assert fields([1e-79]) == ["1e-79"]


def test_subnormals_extremes_zeros_and_non_finite():
    values = [5e-324, -5e-324, TINY, np.nextafter(TINY, 0), 1e-300, MAX, -MAX,
              0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]
    assert fields(values) == ["%.17g" % v for v in values]
    assert fields([-0.0, -np.nan, -np.inf]) == ["-0", "nan", "-inf"]


@pytest.mark.parametrize("shape", [(0, 5), (0, 1), (3, 0)])
def test_empty_matrices(shape):
    assert text(np.zeros(shape)) == reference(np.zeros(shape))


def separators(n_cols: int) -> str:
    return "," * (n_cols - 1) + "\n"


@settings(derandomize=True, deadline=None, max_examples=40)
@given(matrix=matrices(), data=st.data())
def test_column_fields_joined_are_the_matrix_text(matrix, data):
    # any columns rendered in one batch, the rest in another, joined in order
    n_cols = matrix.shape[1]
    batch = sorted(data.draw(st.sets(st.integers(0, n_cols - 1), min_size=1)))
    rest = [j for j in range(n_cols) if j not in batch]
    seps = separators(n_cols)
    rendered = {}
    for group in (batch, rest):
        if group:
            got = column_fields(matrix[:, group], "".join(seps[j] for j in group))
            assert got.shape == (len(group), len(matrix), _csvtext._WIDTH)
            rendered.update(zip(group, got))
    assert "".join(fields_text([rendered[j] for j in range(n_cols)])) == reference(matrix)
    # a rendered column serves any number of matrices with as many rows
    other = column_fields(-matrix[:, -1:], "\n")
    columns = [rendered[j] for j in range(n_cols - 1)] + list(other)
    assert "".join(fields_text(columns)) == reference(
        np.column_stack([matrix[:, :-1], -matrix[:, -1]]))


def test_column_blocks_split_rows_as_a_whole(monkeypatch):
    monkeypatch.setattr(_csvtext, "BLOCK_VALUES", 7)  # 1 or 2 rows per block
    rng = np.random.default_rng(4)
    matrix = bulk("bits", 40 * 5, rng).reshape(40, 5)
    for cut in (1, 3, 4):
        left = column_fields(matrix[:, :cut], "," * cut)
        right = column_fields(matrix[:, cut:], separators(5 - cut))
        assert "".join(fields_text([*left, *right])) == reference(matrix)


def test_matrix_text_of_a_synchronization_matrix_stays_under_3_mb():
    # 6001 rows of 17 columns, cat_reservoir's synchronize files: a block's
    # two byte-index arrays, 25 intp per value, are most of the peak
    matrix = np.random.default_rng(2).normal(size=(6001, 17))
    text(matrix[:1])  # the tables, built once per process
    peak, _ = traced_peak(lambda: [None for _ in matrix_text(matrix)])
    assert peak <= 3 * 2 ** 20


def reference_tables() -> SimpleNamespace:
    """The tables as ``_tables`` built them with a fresh 10**n and a big-int
    division per exponent: what the stepped construction must reproduce."""
    t = _csvtext
    hi, lo = [], []
    for k in range(t._K_MIN, t._K_MAX + 1):
        n = 16 - k
        if n >= 0:
            p = 10 ** n
            hi.append(float(p))
            lo.append(float(p - int(hi[-1])))
        else:
            q = 10 ** -n
            hi.append(1 / q)  # int / int is correctly rounded
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * q) / (den * q))
    hi = np.array(hi)
    hh, hl = t._split(hi)

    four = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    digits4 = (four + ord("0")).astype(np.uint8, order="C").view(np.uint32).ravel()
    trailing4 = np.cumprod(four[:, ::-1] == 0, axis=1).sum(axis=1)
    k = np.arange(t._K_MIN, t._K_MAX + 1)
    three = (np.abs(k)[:, None] // np.array([100, 10, 1])) % 10
    exponent = np.column_stack([np.where(k < 0, ord("-"), ord("+")), three + ord("0")])
    exponent = exponent.astype(np.uint8).view(np.uint32).ravel()

    layout = np.full((2, t._N_CASES, 18, t._WIDTH), t._NUL, dtype=np.intp)
    pad = [t._NUL] * t._WIDTH
    layout[0, :, 1:] = [[(t._field(case, nd) + [t._SEP] + pad)[:t._WIDTH] for nd in range(1, 18)]
                        for case in range(t._N_CASES)]
    layout[1, :, 1:, 0] = t._MINUS
    layout[1, :, 1:, 1:] = layout[0, :, 1:, :-1]
    layout[1, t._NAN_CASE] = layout[0, t._NAN_CASE]
    return SimpleNamespace(
        ten_hi=hi, ten_lo=np.array(lo), ten_hi_hi=hh, ten_hi_lo=hl, digits4=digits4,
        trailing4=trailing4, exponent=exponent, layout=layout.reshape(-1, t._WIDTH),
        constants=np.frombuffer(t._CONSTANTS, dtype=np.uint64)[0])


def test_tables_are_the_reference_construction():
    got, expected = vars(_csvtext._tables()), vars(reference_tables())
    assert got.keys() == expected.keys()
    for name, table in expected.items():
        assert got[name].dtype == table.dtype, name
        assert np.array_equal(got[name], table), name
    # every power's parts, to the last bit (array_equal takes -0.0 == 0.0)
    for name in ("ten_hi", "ten_lo"):
        assert got[name].tobytes() == expected[name].tobytes()
