"""The CSV writer's numpy cells against the per-row '%.17g' loop.

`reference_write_csv` is the writer `cli._write_csv` replaced: one Python
'%' per row over 64 leading-axis slices at a time. Every case here must
come out byte for byte the same from both.
"""

import numpy as np
import pytest

from tunneltimes.cli import _write_csv


def reference_write_csv(path, comment, header, columns):
    columns = [np.asarray(c) for c in columns]
    line = ",".join(("%.17g" % c).replace("%", "%%") if c.ndim == 0 else "%.17g"
                    for c in columns) + "\n"  # scalar columns formatted once
    cols = np.broadcast_arrays(*(c for c in columns if c.ndim))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(comment + "\n" + ",".join(header) + "\n")
        for i in range(0, len(cols[0]), 64):
            block = np.stack([c[i:i + 64] for c in cols], axis=-1)
            rows = block.reshape(-1, len(cols)).tolist()
            fh.writelines(line % tuple(row) for row in rows)


def written(tmp_path, columns):
    """(new bytes, reference bytes) of one table."""
    header = [f"c{i}" for i in range(len(columns))]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    _write_csv(str(new), "# table", header, columns)
    reference_write_csv(str(ref), "# table", header, columns)
    return new.read_bytes(), ref.read_bytes()


def assert_same(tmp_path, columns):
    new, ref = written(tmp_path, columns)
    if new != ref:
        bad = next((a, b) for a, b in zip(new.split(b"\n"), ref.split(b"\n"))
                   if a != b)
        pytest.fail(f"first differing row: {bad[0]!r} != reference {bad[1]!r}")


def powers_of_ten():
    """The double nearest each 10^k, k = -320..300, and its neighbours up to
    three ulps away on either side."""
    p = np.array([float(f"1e{k}") for k in range(-320, 301)])
    out = [p]
    lo = hi = p
    for _ in range(3):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out)


def test_a_million_seeded_values_over_every_exponent(tmp_path):
    rng = np.random.default_rng(26)
    n = 1_000_000
    exponent = rng.integers(-320, 301, n)
    value = rng.uniform(1.0, 10.0, n) * 10.0 ** exponent.astype(float)
    # a third of them with few significant digits, so trailing zeros strip
    short = rng.random(n) < 1 / 3
    value[short] = (np.round(rng.uniform(1.0, 10.0, n), rng.integers(0, 17))
                    * 10.0 ** rng.integers(-6, 19, n).astype(float))[short]
    value *= rng.choice([-1.0, 1.0], n)
    assert_same(tmp_path, [value[i::10] for i in range(10)])


def test_powers_of_ten_and_the_fixed_notation_edges(tmp_path):
    x = powers_of_ten()
    # e = -5/-4 and 16/17 are where '%.17g' switches notation
    edges = np.concatenate([np.linspace(9.99e-5, 1.001e-4, 2001),
                            np.linspace(9.99e15, 1.001e16, 2001),
                            np.linspace(9.99e16, 1.001e17, 2001)])
    assert_same(tmp_path, [np.concatenate([x, -x, edges])])


def test_halfway_cases_round_to_even(tmp_path):
    rng = np.random.default_rng(27)
    # multiples of 2^-s between 2^(52-s) and 2^(53-s): exact binary
    # fractions, many of them exactly halfway between two 17-digit decimals
    x = np.concatenate([rng.integers(2 ** 52, 2 ** 53, 2000) * 2.0 ** -s
                        for s in range(1, 40)])
    assert_same(tmp_path, [x])
    new, _ = written(tmp_path, [np.array([1234567890123456.75])])
    assert new.endswith(b"\n1234567890123456.8\n")


def test_zeros_infinities_nan_and_subnormals(tmp_path):
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                  2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310,
                  -1.7976931348623157e308, 1.0, -1.0, 0.5, 15.0])
    assert_same(tmp_path, [x, x[::-1]])


def test_one_row_one_column_and_scalar_columns(tmp_path):
    assert_same(tmp_path, [np.array([0.1]), np.array([-2.5e-7])])
    assert_same(tmp_path, [np.linspace(0.01, 1.5, 3000)])
    # scalar columns between and after broadcast (n, 1) x (1, m) columns,
    # as `sweep` writes them
    k0 = np.linspace(0.01, 1.5, 1000)[:, None]
    l0 = np.array([[150.0, 300.0, 1e5]])
    assert_same(tmp_path, [k0, l0, 15.0, np.float64(1.0), k0 * l0, np.nan,
                           np.sin(k0 * l0) / k0, 0.0])


def test_list_of_rows_as_propagate_writes_them(tmp_path):
    rows = [[0.3, -300.62, 1.25e-3, 0.018], [0.7, -65.2, 42.0, 0.29],
            [1.1, 22.751, 23.77, 0.7442]]
    assert_same(tmp_path, list(zip(*rows)))
