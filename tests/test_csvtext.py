from decimal import Decimal
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsync import _csvtext
from gsync._csvtext import csv_text

from conftest import traced_peak

MAX = np.finfo(float).max
TINY = np.finfo(float).tiny


def reference(matrix) -> str:
    """The text of Python's % on every value: what csv_text must match."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in np.asarray(matrix, dtype=float).tolist())


def joined(blocks) -> str:
    """Blocks of CSV bytes as one text; every byte must be ASCII."""
    return b"".join(blocks).decode("ascii")


def text(matrix) -> str:
    return joined(csv_text(list(np.asarray(matrix, dtype=float).T)))


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


@pytest.mark.parametrize("shape", [(0, 5), (0, 1)])
def test_empty_matrices(shape):
    assert text(np.zeros(shape)) == reference(np.zeros(shape))


def separators(n_cols: int) -> str:
    return "," * (n_cols - 1) + "\n"


def keyed(matrix, names) -> list:
    """csv_text keys of the matrix's columns: each name with its separator."""
    return [(sep, name) for sep, name in zip(separators(matrix.shape[1]), names)]


class Counting:
    """Counts the values handed to ``_block_fields`` inside ``with``."""

    def __enter__(self):
        self.values, original = 0, _csvtext._block_fields

        def counting(x, *args):
            self.values += len(x)
            return original(x, *args)

        self.patch = mock.patch.object(_csvtext, "_block_fields", counting)
        self.patch.start()
        return self

    def __exit__(self, *exc):
        self.patch.stop()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(matrix=matrices(), data=st.data())
def test_memo_and_fresh_columns_join_to_the_reference(matrix, data):
    # any columns rendered by one call, then the matrix joined from those
    # the memo holds (a key fixes the separator) and the rest, rendered fresh
    n_cols = matrix.shape[1]
    batch = sorted(data.draw(st.sets(st.integers(0, n_cols - 1), min_size=1)))
    memo = {}
    first = keyed(matrix[:, batch], batch)
    assert joined(csv_text(list(matrix[:, batch].T), first, memo)) == reference(matrix[:, batch])
    keys = keyed(matrix, range(n_cols))
    with Counting() as count:
        assert joined(csv_text(list(matrix.T), keys, memo)) == reference(matrix)
    assert count.values == len(matrix) * len(set(keys) - set(first))
    assert set(memo) == set(first) | set(keys)
    # a kept column serves any number of matrices with as many rows
    other = np.column_stack([matrix[:, :-1], -matrix[:, -1]])
    with Counting() as count:
        got = joined(csv_text(list(other.T), keys[:-1] + [("\n", "negated")], memo))
    assert got == reference(other)
    assert count.values == len(matrix)


def test_column_blocks_split_rows_as_a_whole(monkeypatch):
    monkeypatch.setattr(_csvtext, "BLOCK_VALUES", 7)  # one row of 5 per block
    matrix = bulk("bits", 40 * 5, np.random.default_rng(4)).reshape(40, 5)
    keys = keyed(matrix, range(5))
    for cut in (1, 3, 4):
        memo = {}
        left = [*matrix[:, :cut].T, np.zeros(40)]
        assert joined(csv_text(left, keys[:cut] + [("\n", "zeros")], memo)) == reference(
            np.column_stack(left))
        blocks = list(csv_text(list(matrix.T), keys, memo))
        assert [block.count(b"\n") for block in blocks] == [1] * 40
        assert all(block.endswith(b"\n") for block in blocks)
        assert joined(blocks) == reference(matrix)


@pytest.mark.parametrize("memo", [None, {}])
def test_a_key_repeated_within_one_call_is_rendered_once(memo):
    a, b, c = np.random.default_rng(5).normal(size=(3, 50))
    keys = [(",", "a"), (",", "b"), (",", "a"), ("\n", "c")]
    with Counting() as count:
        got = joined(csv_text([a, b, a, c], keys, memo))
    assert got == reference(np.column_stack([a, b, a, c]))
    assert count.values == 3 * 50
    assert memo is None or set(memo) == set(keys)


def test_a_stopped_write_leaves_nothing_in_the_memo(monkeypatch):
    # every row's fields or none: a consumer that fails after the first
    # blocks keeps only what the memo held before
    monkeypatch.setattr(_csvtext, "BLOCK_VALUES", 20)  # 5 rows of 4 per block
    matrix = np.random.default_rng(6).normal(size=(30, 4))
    memo = {}
    blocks = csv_text([matrix[:, 0], matrix[:, 1]], [(",", 0), ("\n", 1)], memo)
    next(blocks)
    blocks.close()
    assert memo == {}
    assert joined(csv_text([matrix[:, 0], matrix[:, 3]], [(",", 0), ("\n", 3)], memo))
    before = list(memo)
    for stop in (1, 5):
        blocks = csv_text(list(matrix.T), keyed(matrix, range(4)), memo)
        with pytest.raises(OSError):
            for n, _ in enumerate(blocks, start=1):
                if n == stop:
                    raise OSError("disk full")
        blocks.close()
        assert list(memo) == before
    assert joined(csv_text(list(matrix.T), keyed(matrix, range(4)), memo)) == reference(matrix)
    assert len(memo) == 4


def test_a_synchronization_matrix_renders_under_3_mb():
    # 6001 rows of 17 columns, cat_reservoir's synchronize files: a block's
    # two byte-index arrays, 25 intp per value, are most of the peak
    matrix = np.random.default_rng(2).normal(size=(6001, 17))
    text(matrix[:1])  # the tables, built once per process
    peak, _ = traced_peak(lambda: [None for _ in csv_text(list(matrix.T))])
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
