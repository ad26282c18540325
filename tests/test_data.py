"""Synthetic generator, splitting, outcome stripping, and CSV interchange."""
import csv
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adbcr.data import (CSV_WRITE_ROWS, TEST, TRAIN, VAL, Dataset, DgpConfig, generate,
                        load_csv, save_csv, split, strip_outcomes)
from adbcr.errors import ConfigError, DatasetError, ParseError


def make(n=100, **overrides) -> tuple[Dataset, dict]:
    base = dict(n=n, d=4, bias_strength=1.0, effect_heterogeneity=1.0,
                noise_sd=0.5, nonlinearity="quadratic", seed=0)
    base.update(overrides)
    return generate(DgpConfig(**base))


# ---------------------------------------------------------------------------
# generator

def test_generate_shapes_and_types():
    ds, truth = make(n=120)
    assert ds.x.shape == (120, 4)
    assert ds.t.shape == (120,) and ds.t.dtype == np.int64
    assert set(np.unique(ds.t)) <= {0, 1}
    for arr in (ds.y_factual, ds.y_cf, ds.mu0, ds.mu1, ds.propensity):
        assert arr.shape == (120,)
        assert np.all(np.isfinite(arr))
    assert ds.has_ground_truth
    assert len(truth["propensity_direction"]) == 4


def test_generate_propensity_bounds():
    for seed in range(5):
        ds, _ = make(n=500, bias_strength=10.0, seed=seed)
        assert ds.propensity.min() >= 0.05
        assert ds.propensity.max() <= 0.95


def test_generate_zero_noise_outcomes_exact():
    ds, _ = make(noise_sd=0.0)
    mu_f = np.where(ds.t == 1, ds.mu1, ds.mu0)
    mu_cf = np.where(ds.t == 1, ds.mu0, ds.mu1)
    np.testing.assert_array_equal(ds.y_factual, mu_f)
    np.testing.assert_array_equal(ds.y_cf, mu_cf)


def test_generate_zero_heterogeneity_constant_effect():
    ds, _ = make(effect_heterogeneity=0.0, base_effect=2.0)
    np.testing.assert_allclose(ds.tau_true(), 2.0, atol=1e-12)


def test_generate_zero_bias_is_randomized_trial():
    ds, _ = make(n=400, bias_strength=0.0)
    np.testing.assert_array_equal(ds.propensity, np.full(400, 0.5))
    assert abs(ds.t.mean() - 0.5) < 3 * 0.5 / np.sqrt(400)


def test_generate_linear_surface_matches_direction():
    ds, truth = make(nonlinearity="linear", seed=3)
    np.testing.assert_allclose(ds.mu0, ds.x @ np.array(truth["outcome_direction"]),
                               rtol=1e-12)


def test_generate_true_ate_matches_surfaces():
    ds, truth = make(seed=4)
    assert truth["true_ate"] == float(np.mean(ds.mu1 - ds.mu0))


def test_generate_deterministic():
    d1, t1 = make(seed=7)
    d2, t2 = make(seed=7)
    np.testing.assert_array_equal(d1.x, d2.x)
    np.testing.assert_array_equal(d1.t, d2.t)
    np.testing.assert_array_equal(d1.y_factual, d2.y_factual)
    np.testing.assert_array_equal(d1.propensity, d2.propensity)
    assert t1 == t2


def test_generate_seeds_differ():
    d1, _ = make(seed=0)
    d2, _ = make(seed=1)
    assert not np.array_equal(d1.x, d2.x)


def test_generate_config_validation():
    with pytest.raises(ConfigError):
        DgpConfig(n=49)
    with pytest.raises(ConfigError):
        DgpConfig(d=1)
    with pytest.raises(ConfigError):
        DgpConfig(noise_sd=-0.1)
    with pytest.raises(ConfigError):
        DgpConfig(nonlinearity="cubic")


def test_generate_exp_surface_finite():
    ds, _ = make(nonlinearity="exp", seed=5)
    assert np.all(np.isfinite(ds.mu0))


# ---------------------------------------------------------------------------
# splitting

def test_split_counts_100_rows():
    ds, _ = make(n=100)
    out = split(ds, (0.63, 0.27, 0.10), seed=0)
    assert out.indices(TRAIN).size == 63
    assert out.indices(VAL).size == 27
    assert out.indices(TEST).size == 10
    assert np.union1d(np.union1d(out.indices(TRAIN), out.indices(VAL)),
                      out.indices(TEST)).size == 100


def test_split_keeps_both_arms_everywhere():
    ds, _ = make(n=100, bias_strength=2.0, seed=2)
    out = split(ds, seed=1)
    for code in (TRAIN, VAL, TEST):
        arms = ds.t[out.indices(code)]
        assert (arms == 0).any() and (arms == 1).any()


def test_split_all_train_fractions():
    ds, _ = make(n=60)
    out = split(ds, (1.0, 0.0, 0.0), seed=0)
    assert out.indices(TRAIN).size == 60
    assert out.indices(VAL).size == 0
    assert out.indices(TEST).size == 0


def test_split_deterministic_and_seed_sensitive():
    ds, _ = make(n=100)
    a = split(ds, seed=4).split
    b = split(ds, seed=4).split
    c = split(ds, seed=5).split
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_split_does_not_mutate_input():
    ds, _ = make(n=100)
    split(ds, seed=0)
    assert ds.split is None


def test_split_fraction_validation():
    ds, _ = make(n=60)
    with pytest.raises(ConfigError):
        split(ds, (0.5, 0.5))
    with pytest.raises(ConfigError):
        split(ds, (0.8, 0.3, -0.1))
    with pytest.raises(ConfigError):
        split(ds, (0.5, 0.3, 0.1))
    with pytest.raises(ConfigError, match="finite"):
        split(ds, (float("nan"), 0.5, 0.5))


def test_split_lone_treated_row_rejected():
    ds, _ = make(n=60)
    t = np.zeros(60, dtype=np.int64)
    t[0] = 1
    lone = Dataset(x=ds.x, t=t, y_factual=ds.y_factual)
    with pytest.raises(DatasetError):
        split(lone, (0.63, 0.27, 0.10), seed=0)


# ---------------------------------------------------------------------------
# outcome stripping

def test_strip_moves_rows_to_pool():
    ds, _ = make(n=100)
    ds = split(ds, seed=0)
    target = ds.indices(TEST)
    out = strip_outcomes(ds, target)
    np.testing.assert_array_equal(out.unlabeled_rows(), np.sort(target))
    assert out.labeled_indices(TEST).size == 0
    assert out.labeled_indices(TRAIN).size == ds.indices(TRAIN).size
    assert ds.unlabeled_mask.sum() == 0


def test_strip_nothing_is_identity():
    ds, _ = make(n=80)
    out = strip_outcomes(ds, np.array([], dtype=np.intp))
    assert out.unlabeled_rows().size == 0


def test_strip_rejects_validation_rows():
    ds, _ = make(n=100)
    ds = split(ds, seed=0)
    with pytest.raises(ConfigError):
        strip_outcomes(ds, ds.indices(VAL)[:3])


def test_strip_rejects_duplicates_and_range():
    ds, _ = make(n=80)
    with pytest.raises(ConfigError):
        strip_outcomes(ds, np.array([1, 1]))
    with pytest.raises(ConfigError):
        strip_outcomes(ds, np.array([80]))
    with pytest.raises(ConfigError):
        strip_outcomes(ds, np.array([-1]))


# ---------------------------------------------------------------------------
# CSV interchange

def test_csv_round_trip_exact(tmp_path):
    ds, _ = make(n=70, seed=9)
    path = str(tmp_path / "d.csv")
    save_csv(ds, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.t, ds.t)
    np.testing.assert_array_equal(back.y_factual, ds.y_factual)
    np.testing.assert_array_equal(back.y_cf, ds.y_cf)
    np.testing.assert_array_equal(back.mu0, ds.mu0)
    np.testing.assert_array_equal(back.mu1, ds.mu1)
    assert back.split is None


def test_csv_round_trip_without_ground_truth(tmp_path):
    ds, _ = make(n=60)
    bare = Dataset(x=ds.x, t=ds.t, y_factual=ds.y_factual)
    path = str(tmp_path / "bare.csv")
    save_csv(bare, path)
    back = load_csv(path)
    assert not back.has_ground_truth
    assert back.y_cf is None
    np.testing.assert_array_equal(back.y_factual, bare.y_factual)


def test_csv_wide_schema_exposes_effect(tmp_path):
    """A 25-covariate file with both surfaces yields per-row effects."""
    ds, _ = make(n=100, d=25, seed=11)
    path = str(tmp_path / "wide.csv")
    save_csv(ds, path)
    header = Path(path).read_text().splitlines()[0].split(",")
    assert header[:5] == ["t", "y_factual", "y_cfactual", "mu0", "mu1"]
    assert header[5:] == [f"x{j}" for j in range(25)]
    back = load_csv(path)
    assert back.d == 25
    np.testing.assert_array_equal(back.tau_true(), ds.mu1 - ds.mu0)


def test_csv_missing_outcome_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x0\n0,1.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(str(path))
    assert err.value.column == "y_factual"


def test_csv_non_numeric_cell_located(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y_factual,x0\n0,1.0,2.0\n1,oops,3.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(str(path))
    assert err.value.row == 3
    assert err.value.column == "y_factual"


@pytest.mark.parametrize("column", ["x0", "y_factual"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_cell_located(tmp_path, value, column):
    path = tmp_path / "bad.csv"
    cells = {"t": "1", "y_factual": "1.0", "x0": "3.0"}
    cells[column] = value
    path.write_text("t,y_factual,x0\n0,1.0,2.0\n" + ",".join(cells.values()) + "\n")
    with pytest.raises(ParseError, match="non-finite") as err:
        load_csv(str(path))
    assert err.value.row == 3
    assert err.value.column == column


def test_csv_bad_treatment_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y_factual,x0\n2,1.0,2.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(str(path))
    assert err.value.column == "t"


def test_csv_unpaired_surfaces(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y_factual,mu0,x0\n0,1.0,0.5,2.0\n")
    with pytest.raises(ParseError):
        load_csv(str(path))


def test_csv_byte_order_mark_is_dropped(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    text = "t,y_factual,x0\r\n1,0.5,2\r\n0,1.5,-3\r\n".encode("utf-8")
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    a, b = load_csv(str(plain)), load_csv(str(marked))
    for name in ("x", "t", "y_factual"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert b.y_cf is None and b.mu0 is None and b.mu1 is None


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y_factual,x0\n0,1.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(str(path))
    assert err.value.row == 2


def test_csv_degenerate_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_csv(str(empty))
    header_only = tmp_path / "header.csv"
    header_only.write_text("t,y_factual,x0\n")
    with pytest.raises(ParseError):
        load_csv(str(header_only))
    no_covariates = tmp_path / "nocov.csv"
    no_covariates.write_text("t,y_factual\n0,1.0\n")
    with pytest.raises(ParseError):
        load_csv(str(no_covariates))


@pytest.mark.parametrize("name", ["x0", "t", "y_factual"])
def test_csv_duplicate_header_rejected(tmp_path, name):
    path = tmp_path / "dup.csv"
    path.write_text(f"t,y_factual,x0,{name}\n0,1.0,2.0,0\n")
    with pytest.raises(ParseError, match="duplicate") as err:
        load_csv(str(path))
    assert err.value.column == name


@pytest.mark.parametrize("header, position", [
    ("t,y_factual,x0,", 4),      # a trailing comma
    (",t,y_factual,x0", 1),      # pandas' to_csv writes its row index under an empty name
    ("t,y_factual, ,x0", 3),
])
def test_csv_empty_header_name_rejected(tmp_path, header, position):
    path = tmp_path / "unnamed.csv"
    path.write_text(f"{header}\n0,1.0,2.0,3.0\n")
    with pytest.raises(ParseError, match=f"empty name for header column {position}$"):
        load_csv(str(path))


# ---------------------------------------------------------------------------
# CSV errors and the cell-by-cell fallback

GOOD_ROWS = ["0,1.0,2.0", "1,1.5,-2.0", "0,0.5,3.5", "1,2.5,0.25", "1,-1.0,1.0"]


def write_rows(path, edits: dict[int, str]) -> str:
    """t,y_factual,x0 and GOOD_ROWS with the records on the given file rows (header = 1) replaced."""
    lines = ["t,y_factual,x0", *GOOD_ROWS]
    for row, line in edits.items():
        lines[row - 1] = line
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("edits, message", [
    ({6: "1,oops,1.0"}, "non-numeric value 'oops' (row 6, column 'y_factual')"),
    ({5: "1,2.5,inf"}, "non-finite value 'inf' (row 5, column 'x0')"),
    ({6: "1,-1.0"}, "expected 3 fields, got 2 (row 6)"),
    ({5: "1,2.5,0.25,7"}, "expected 3 fields, got 4 (row 5)"),
    ({4: "0,0.5", 5: "1,2.5"}, "expected 3 fields, got 2 (row 4)"),   # two records short
    ({5: "2,2.5,0.25"}, f"treatment must be 0 or 1, got {np.float64(2.0)!r} (row 5, column 't')"),
    ({3: "1,1.5,oops", 6: "2,-1.0,1.0"},
     f"treatment must be 0 or 1, got {np.float64(2.0)!r} (row 6, column 't')"),
    ({2: "0,1.0,nan", 6: "abc,-1.0,1.0"}, "non-numeric value 'abc' (row 6, column 't')"),
    ({2: "0,x,1.0", 5: "1,2.5,y"}, "non-numeric value 'y' (row 5, column 'x0')"),
], ids=["non-numeric", "non-finite", "short-record", "long-record", "short-block",
        "treatment-value", "treatment-after-covariate", "treatment-cell-after-covariate",
        "covariate-before-outcome"])
def test_csv_errors_in_later_blocks_name_the_first_bad_cell(tmp_path, edits, message):
    """A bad record late in the file, or bad cells in several records, give
    the whole-file column order's error: t (and its 0/1 check), then the
    covariates, then y_factual."""
    with pytest.raises(ParseError) as err:
        load_csv(write_rows(tmp_path / "bad.csv", edits))
    assert str(err.value) == message


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("lines, message", [
    (["t,y_factual,x0", "0,1.0,2.0", "", "1,1.5,-2.0"], "expected 3 fields, got 0 (row 3)"),
    (["t,y_factual,x0", "0,1.0,2.0", "1,1.5,-2.0", ""], "expected 3 fields, got 0 (row 4)"),
    (["t,y_factual,x0", "0,1.0,2.0", " ", "1,1.5,-2.0"], "expected 3 fields, got 1 (row 3)"),
], ids=["blank-mid-file", "blank-trailing", "space-only"])
def test_csv_blank_line_is_an_empty_record(tmp_path, end, lines, message):
    """A blank line is a record of no fields, not a line to skip."""
    path = tmp_path / "blank.csv"
    path.write_bytes(end.join([*lines, ""]).encode("utf-8"))
    with pytest.raises(ParseError) as err:
        load_csv(str(path))
    assert str(err.value) == message


@pytest.mark.parametrize("text", ["t,y_factual,x0\n", "t,y_factual,x0\r\n", "t,y_factual,x0"])
def test_csv_header_only_raises_without_warning(tmp_path, text):
    path = tmp_path / "header.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="has a header but no rows"):
            load_csv(str(path))


def test_csv_cells_loadtxt_refuses_load_as_float_reads_them(tmp_path):
    """Quoted cells, underscores and non-ASCII digits: float() accepts them all."""
    path = tmp_path / "cells.csv"
    rows = [("0", '"1.5"', "2_0"), ('"1"', "1_0.2_5", "\u0663"), ("1", "-7", "\uff11.5")]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("t,y_factual,x0\r\n" + "".join(",".join(row) + "\r\n" for row in rows))
    back = load_csv(str(path))
    cells = [[cell.strip('"') for cell in row] for row in rows]
    assert back.t.tolist() == [0, 1, 1]
    assert back.y_factual.tobytes() == np.array([float(r[1]) for r in cells]).tobytes()
    assert back.x.tobytes() == np.array([[float(r[2])] for r in cells]).tobytes()
    assert back.x[:, 0].tolist() == [20.0, 3.0, 1.5]


def test_csv_quoted_cell_load_stays_near_the_table_size(tmp_path):
    """A quoted cell sends the load to the cell-by-cell walk, which streams the
    records: its traced peak (about 2 tables) stays far below the 20k rows' cell
    strings (about 25 MiB)."""
    ds, _ = make(n=20_000, d=10, seed=4)
    path = tmp_path / "quoted.csv"
    save_csv(ds, str(path))
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[7].split(b",")
    cells[6] = b'"' + cells[6] + b'"'
    lines[7] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    tracemalloc.start()
    try:
        back = load_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.x.tobytes() == ds.x.tobytes()
    table_bytes = ds.n * 15 * 8
    assert peak < 4 * table_bytes, f"peak {peak / 2 ** 20:.1f} MiB"


def test_csv_large_file_bit_exact_against_float(tmp_path):
    """n=10000 generated rows load as a per-cell float() parse of the written text."""
    ds, _ = make(n=10_000, d=10, seed=3)
    path = str(tmp_path / "big.csv")
    save_csv(ds, path)
    with open(path, encoding="utf-8", newline="") as f:
        header, *records = list(csv.reader(f))
    table = np.array([[float(cell) for cell in record] for record in records])
    back = load_csv(path)
    assert back.n == 10_000
    assert back.t.tobytes() == table[:, 0].astype(np.int64).tobytes()
    for name, column in (("y_factual", 1), ("y_cf", 2), ("mu0", 3), ("mu1", 4)):
        assert getattr(back, name).tobytes() == table[:, column].tobytes()
    assert back.x.tobytes() == np.ascontiguousarray(table[:, 5:]).tobytes()
    assert back.x.tobytes() == ds.x.tobytes()


# ---------------------------------------------------------------------------
# CSV properties against per-cell references

def save_csv_reference(dataset: Dataset, path: str) -> None:
    """The interchange CSV written cell by cell through csv.writer."""
    columns = ["t", "y_factual"]
    values = [dataset.t, dataset.y_factual]
    for name, arr in (("y_cfactual", dataset.y_cf), ("mu0", dataset.mu0),
                      ("mu1", dataset.mu1)):
        if arr is not None:
            columns.append(name)
            values.append(arr)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns + [f"x{j}" for j in range(dataset.d)])
        for i in range(dataset.n):
            row = [str(int(dataset.t[i]))]
            row += [format(v[i], ".17g") for v in values[1:]]
            row += [format(v, ".17g") for v in dataset.x[i]]
            writer.writerow(row)


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
               1.7e308, -1.7e308, 1.7976931348623157e308)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


@st.composite
def datasets(draw) -> Dataset:
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    column = arrays(np.float64, n, elements=finite_floats)
    truth = draw(st.booleans())
    return Dataset(
        x=draw(arrays(np.float64, (n, d), elements=finite_floats)),
        t=draw(arrays(np.int64, n, elements=st.integers(0, 1))),
        y_factual=draw(column),
        y_cf=draw(column) if truth else None,
        mu0=draw(column) if truth else None,
        mu1=draw(column) if truth else None)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ds=datasets())
def test_csv_round_trip_bit_exact_and_writer_bytes(tmp_path, ds):
    path, reference = str(tmp_path / "d.csv"), str(tmp_path / "ref.csv")
    save_csv(ds, path)
    save_csv_reference(ds, reference)
    assert Path(path).read_bytes() == Path(reference).read_bytes()
    back = load_csv(path)
    for name in ("x", "t", "y_factual", "y_cf", "mu0", "mu1"):
        saved, loaded = getattr(ds, name), getattr(back, name)
        if saved is None:
            assert loaded is None
        else:
            assert loaded.dtype == saved.dtype and loaded.shape == saved.shape
            assert loaded.tobytes() == saved.tobytes()


def test_csv_bytes_match_writer_across_write_blocks(tmp_path):
    ds, _ = make(n=2 * CSV_WRITE_ROWS + 3, seed=5)
    path, reference = str(tmp_path / "d.csv"), str(tmp_path / "ref.csv")
    save_csv(ds, path)
    save_csv_reference(ds, reference)
    assert Path(path).read_bytes() == Path(reference).read_bytes()
    assert load_csv(path).x.tobytes() == ds.x.tobytes()


SPELLINGS = ("1_000", " 2.5 ", "+1", "1e400", "nan", "0x10", "", "\u0663",
             "\uff11\uff12", "-0", "1e-320", "-Infinity", "1__0", " ", "abc", "0.5", "1")
CELL_COLUMNS = ("t", "y_factual", "x0", "x1")


def load_outcome_reference(table: list[list[str]]):
    """What a per-cell float() parse of CELL_COLUMNS must give.

    Columns are read in load_csv's order (t, its 0/1 check, the
    covariates, y_factual); within a column the first cell that float()
    rejects is reported before the first non-finite one. Returns
    ("error", row, column) or ("ok", {column: values}).
    """
    values = {}
    for name in ("t", "x0", "x1", "y_factual"):
        j = CELL_COLUMNS.index(name)
        cells = [row[j] for row in table]
        parsed = []
        for i, cell in enumerate(cells):
            try:
                parsed.append(float(cell))
            except ValueError:
                return "error", i + 2, name
        for i, value in enumerate(parsed):
            if not np.isfinite(value):
                return "error", i + 2, name
        if name == "t":
            for i, value in enumerate(parsed):
                if value not in (0.0, 1.0):
                    return "error", i + 2, name
        values[name] = np.array(parsed)
    return "ok", values


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=st.lists(st.lists(st.sampled_from(SPELLINGS) | st.sampled_from(("0", "1")),
                               min_size=4, max_size=4), min_size=1, max_size=4))
def test_csv_cell_spellings_match_float(tmp_path, table):
    path = tmp_path / "cells.csv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([CELL_COLUMNS, *table])
    expected = load_outcome_reference(table)
    if expected[0] == "error":
        with pytest.raises(ParseError) as err:
            load_csv(str(path))
        assert (err.value.row, err.value.column) == expected[1:]
        return
    back = load_csv(str(path))
    values = expected[1]
    assert back.t.tobytes() == values["t"].astype(np.int64).tobytes()
    assert back.y_factual.tobytes() == values["y_factual"].tobytes()
    assert back.x.tobytes() == np.column_stack([values["x0"], values["x1"]]).tobytes()
