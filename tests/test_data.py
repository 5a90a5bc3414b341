"""Columnar dataset, CSV round-trip, synthetic generator, stratified splits."""

import hashlib
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import csv_text_by_value, identity_normalizer, loop_stratified_subset, per_row_load_csv
from rows import rows
import qpose.data
from qpose.data import (
    CSV_BLOCK_ROWS,
    CSV_HEADER,
    HASH_BLOCK_BYTES,
    CsvFormatError,
    Dataset,
    Domain,
    FeatureNormalizer,
    N_CLASSES,
    N_FEATURES,
    SOURCE_SESSIONS,
    ShiftSpec,
    TARGET_CLASS_WEIGHTS,
    TARGET_SESSIONS,
    apportion,
    dataset_sha256,
    features_matrix,
    generate_synthetic,
    load_csv,
    split_labeled,
    stratified_subset,
    write_csv,
)


def tiny_dataset():
    rng = np.random.default_rng(0)
    c = np.arange(24)
    return Dataset(rng.normal(size=(24, N_FEATURES)), c % N_CLASSES,
                   np.where(c % 2, "source", "target"), c % 3)


def columns(n=3):
    """Valid columns of ``n`` rows, to break one rule at a time."""
    return {"samples": np.zeros((n, N_FEATURES)), "labels": np.arange(n) % N_CLASSES,
            "domain": ["source"] * n, "session": np.zeros(n, dtype=np.int64)}


class TestSample:
    """What a row may hold: the Dataset constructor's rules, one test each,
    checked a column at a time."""

    def test_wrong_arity_rejected(self):
        for shape in ((3, 35), (N_FEATURES,), (3, N_FEATURES, 1)):
            with pytest.raises(ValueError, match=r"expected \(n, 36\) features"):
                Dataset(**columns() | {"samples": np.zeros(shape)})

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            feats = np.zeros((3, N_FEATURES))
            feats[1, 7] = bad
            with pytest.raises(ValueError, match="^features must be finite$"):
                Dataset(**columns() | {"samples": feats})

    def test_label_range(self):
        for label in (8, -1):
            with pytest.raises(ValueError, match="^labels must lie in 0..7$"):
                Dataset(**columns() | {"labels": [0, 1, label]})

    def test_features_are_read_only(self):
        ds = Dataset(**columns())
        for column in (ds.samples, ds.labels, ds.domain, ds.session):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValueError, match="^labels must be integers"):
            Dataset(**columns() | {"labels": [0.0, 1.5, 2.0]})

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match=r"^domain must be one of \['source', 'target'\]$"):
            Dataset(**columns() | {"domain": ["sink", "source", "target"]})

    def test_non_integer_session_rejected(self):
        with pytest.raises(ValueError, match="^session must be integers"):
            Dataset(**columns() | {"session": [0.0, 1.0, 2.5]})

    @pytest.mark.parametrize("name, short", [("labels", [0, 1]), ("domain", ["source"]),
                                             ("session", [0, 1, 2, 3])])
    def test_unequal_column_lengths_rejected(self, name, short):
        with pytest.raises(ValueError, match="one entry per feature row"):
            Dataset(**columns() | {name: short})

    def test_domain_members_held_as_values(self):
        ds = Dataset(**columns() | {"domain": [Domain.SOURCE, Domain.TARGET, "target"]})
        assert ds.domain.tolist() == ["source", "target", "target"]
        assert ds.labels.dtype == ds.session.dtype == np.int64

    def test_empty_dataset(self):
        ds = Dataset(np.empty((0, N_FEATURES)), [], [], [])
        assert len(ds) == 0 and not ds
        assert ds.class_counts(Domain.SOURCE).tolist() == [0] * N_CLASSES


class TestColumns:
    def test_take_copies_rows_in_index_order(self):
        ds = tiny_dataset()
        sub = ds.take(np.array([5, 0, 7]))
        assert np.array_equal(sub.samples, ds.samples[[5, 0, 7]])
        assert sub.labels.tolist() == [5, 0, 7]
        assert sub.domain.tolist() == ["source", "target", "source"]
        assert sub.session.tolist() == [2, 0, 1]
        assert not np.shares_memory(sub.samples, ds.samples)
        assert not sub.samples.flags.writeable

    def test_by_domain_keeps_pool_order(self):
        ds = tiny_dataset()
        src = ds.by_domain(Domain.SOURCE)
        assert np.array_equal(src.samples, ds.samples[1::2])
        assert set(src.domain.tolist()) == {"source"}
        assert len(ds.by_domain("target")) == 12

    def test_class_counts_equal_row_count_per_class(self):
        ds = generate_synthetic(90, 70, ShiftSpec(seed=2))
        for domain in Domain:
            labels = [label for label, d in zip(ds.labels.tolist(), ds.domain.tolist())
                      if d == domain.value]
            want = [labels.count(c) for c in range(N_CLASSES)]
            assert ds.class_counts(domain).tolist() == want

    def test_features_matrix_is_the_samples_column(self):
        ds = tiny_dataset()
        assert features_matrix(ds) is ds.samples
        assert len(load_csv_of(ds).samples) == len(ds) == 24


def load_csv_of(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        write_csv(ds, path)
        return load_csv(path)


def canonical_sha256(ds):
    """sha256 of the canonical CSV text: the file `write_csv` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.csv"
        write_csv(ds, path)
        return dataset_sha256(path)


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate_synthetic(40, 40, ShiftSpec(seed=3))
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert len(back) == len(ds)
        for name in ("samples", "labels", "domain", "session"):
            assert np.array_equal(getattr(back, name), getattr(ds, name)), name

    def test_three_row_file(self, tmp_path):
        rows = []
        for label in (0, 3, 7):
            feats = ",".join(str(float(i + label)) for i in range(N_FEATURES))
            rows.append(f"{label},source,1,{feats}")
        path = tmp_path / "three.csv"
        path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        ds = load_csv(path)
        assert ds.labels.tolist() == [0, 3, 7]

    def test_short_row_names_line(self, tmp_path):
        feats35 = ",".join(["0.0"] * 35)
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + f"0,source,1,{feats35}\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    def test_bad_label_names_line(self, tmp_path):
        feats = ",".join(["0.0"] * N_FEATURES)
        good = f"0,source,1,{feats}"
        bad = f"9,target,1,{feats}"
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["1_0", " 1.5 ", "\t2", "+1", ".5", "5.", "-0.0", "1e-400",
                                      "nan", "-inf", "1e500", "0x1p3", "", "  ", "1.5e",
                                      "1__0", "_1"])
    def test_feature_parse_agrees_with_float(self, tmp_path, text):
        feats = ["0.0"] * N_FEATURES
        feats[4] = text
        path = tmp_path / "probe.csv"
        good = "0,source,1," + ",".join(["0.0"] * N_FEATURES)
        path.write_text(f"{CSV_HEADER}\n{good}\n0,source,1,{','.join(feats)}\n",
                        encoding="utf-8")
        try:
            want = float(text)
        except ValueError:
            want = None
        if want is None or not np.isfinite(want):
            with pytest.raises(CsvFormatError, match="line 3"):
                load_csv(path)
        else:
            got = load_csv(path).samples[1, 4]
            assert np.float64(want).tobytes() == got.tobytes()

    FEATS = ",".join(["0.0"] * N_FEATURES)
    NAN_ROW = "0,source,1,nan," + ",".join(["0.0"] * (N_FEATURES - 1))

    @pytest.mark.parametrize("bad, message", [
        (f"9,target,1,{FEATS}", "label 9 outside 0..7"),
        (f"{10**30},target,1,{FEATS}", f"label {10**30} outside 0..7"),
        (f"x,target,1,{FEATS}", "invalid literal for int() with base 10: 'x'"),
        (f"0,sink,1,{FEATS}", "'sink' is not a valid Domain"),
        (f"0,source,1.5,{FEATS}", "invalid literal for int() with base 10: '1.5'"),
        (f"0,source,{2**63},{FEATS}", f"session {2**63} outside the int64 range"),
        ("0,source,1," + ",".join(["0.0"] * (N_FEATURES - 1)), "expected 39 fields, got 38"),
        (NAN_ROW, "features must be finite"),
        ("9" + NAN_ROW[1:], "features must be finite"),
        ("0,source,1,abc," + ",".join(["0.0"] * (N_FEATURES - 1)),
         "could not convert string to float: 'abc'"),
    ], ids=["label", "huge-label", "label-text", "domain", "session-text", "huge-session",
            "fields", "nan", "nan-and-label", "unparsable"])
    @pytest.mark.parametrize("good_rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS + 87])
    def test_bad_row_names_its_line(self, tmp_path, bad, message, good_rows):
        # the bad row sits in the first block, at its last row, or in the
        # second block, with blank lines counted
        good = f"0,source,1,{self.FEATS}"
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n\n" + f"{good}\n" * good_rows + bad + "\n" + good + "\n",
                        encoding="utf-8")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"line {good_rows + 3}: {message}"

    def test_first_bad_line_wins(self, tmp_path):
        # a non-finite row ahead of an unparsable one in the same block
        good = f"0,source,1,{self.FEATS}"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([CSV_HEADER, good, self.NAN_ROW, good, f"0,sink,1,{self.FEATS}"])
                        + "\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="^line 3: features must be finite$"):
            load_csv(path)

    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS,
                                   3 * CSV_BLOCK_ROWS + 1, 2601])
    def test_round_trip_across_buffer_growth(self, n):
        rng = np.random.default_rng(n)
        ds = Dataset(rng.normal(size=(n, N_FEATURES)), rng.integers(0, N_CLASSES, n),
                     np.where(rng.random(n) < 0.5, "source", "target"), rng.integers(0, 9, n))
        back = load_csv_of(ds)
        assert back.samples.shape == (n, N_FEATURES)
        for name in ("samples", "labels", "domain", "session"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name

    def test_features_are_not_held_twice(self, tmp_path):
        # the first load parses and writes the sidecar, the second reads it
        path = tmp_path / "ds.csv"
        write_csv(generate_synthetic(800, 4000, ShiftSpec(seed=11)), path)
        for load in ("parse", "sidecar"):
            tracemalloc.start()
            try:
                back = load_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(back) == 4800
            assert peak <= 1.5 * back.samples.nbytes, (load, peak)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("nope,nope\n", encoding="utf-8")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")


def assert_same_load(path):
    """`load_csv` and the per-row oracle agree on ``path``: both raise the
    same CsvFormatError text, or both return the same bytes in every
    column. Returns the oracle's dataset, or None when both raised."""
    try:
        want = per_row_load_csv(path)
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert str(err.value) == str(exc)
        return None
    got = load_csv(path)
    for name in ("samples", "labels", "domain", "session"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    if len(want):
        assert got.domain.dtype == want.domain.dtype == np.dtype("<U6")
    return want


# Field texts: a valid value or an odd spelling, padded with characters
# that either parser may strip as whitespace, or a short string over
# characters that either parser treats specially.
PADDING = st.sampled_from(["", " ", "\t", "\x00", "\x1c", "\x1f", "\x85", "\u3000", " \x1e"])


def padded(values):
    return st.tuples(PADDING, st.sampled_from(values), PADDING).map("".join)


NUMBER_FIELDS = st.one_of(
    padded(["0", "7", "+1", "-0", "-1e-300", "5."]),
    padded(["8", "-1", "1.0", "1_0", "١", "nan", "INF", "1e500", "0x1p3", str(-2**63),
            str(2**63), ""]),
    st.text("0123456789+-.eE_ \x00\x1c١nafitNIx,\r", max_size=6))
DOMAIN_FIELDS = st.one_of(
    padded(["source", "target"]),
    padded(["targetx", "sourcesource", "Source", ""]),
    st.text("sourcetag \x00\x1c,\r", max_size=8))
FIELD_EDITS = st.one_of(st.tuples(st.just(1), DOMAIN_FIELDS),
                        st.tuples(st.sampled_from([0, 2, 3, 20, 2 + N_FEATURES]), NUMBER_FIELDS))

# 520 canonical rows of varied values, past the first block, split into fields
GOOD_ROWS = [line.split(",") for line in csv_text_by_value(
    generate_synthetic(260, 260, ShiftSpec(seed=1))).splitlines()[1:]]


def csv_bytes(rows, newline="\n", final_newline=True):
    """The header and ``rows`` (lists of fields, or whole lines as str)."""
    lines = [CSV_HEADER] + [row if isinstance(row, str) else ",".join(row) for row in rows]
    return (newline.join(lines) + (newline if final_newline else "")).encode("utf-8")


def loadtxt_rows(*lines):
    """The structured rows `np.loadtxt` gives the block parse for ``lines``."""
    return np.loadtxt(list(lines), dtype=qpose.data._CSV_ROW, delimiter=",", comments=None,
                      quotechar=None, ndmin=1)


class TestBlockParse:
    """The block parse (`np.loadtxt` per CSV_BLOCK_ROWS lines) against the
    per-row oracle: same accept or reject, same error text and line, same
    bytes in every column."""

    @pytest.mark.parametrize("column, text", [
        (7, "1_0"), (7, " 1.5 "), (7, "nan"), (7, "INF"), (7, "1e500"), (7, "0x1p3"),
        (7, "١٢"), (7, "1\x1c"), (7, "\x1f2"), (7, "1\x85"), (7, "　1"), (7, "1\x00"),
        (0, "1.0"), (0, "+1"), (0, "1_0"), (0, "١"), (0, "1\x1c"),
        (2, "1.0"), (2, "+1"), (2, str(-2**63)), (2, str(2**63)), (2, str(-2**63 - 1)),
        (1, " source"), (1, "targetx"), (1, "sourcesource"), (1, "source\x00"),
        (1, "target\x1c"), (1, ""),
    ])
    def test_spelling_agrees_with_per_row_parse(self, tmp_path, column, text):
        # in the first row, and at lines 511, 512 and 513 of a block of
        # CSV_BLOCK_ROWS lines (line 1 of the file is the header)
        path = tmp_path / "probe.csv"
        for at in (0, CSV_BLOCK_ROWS - 2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS):
            rows = [list(row) for row in GOOD_ROWS]
            rows[at][column] = text
            path.write_bytes(csv_bytes(rows))
            assert_same_load(path)

    @pytest.mark.parametrize("line", ["", " ", "\t", "  \t  "])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_endings_blank_and_whitespace_lines(self, tmp_path, line, newline):
        path = tmp_path / "probe.csv"
        for at in (0, CSV_BLOCK_ROWS - 2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS):
            rows = [list(row) for row in GOOD_ROWS]
            rows.insert(at, line)
            path.write_bytes(csv_bytes(rows, newline))
            assert_same_load(path)

    def test_crlf_file_loads_the_lf_samples(self, tmp_path):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(csv_bytes(GOOD_ROWS))
        crlf.write_bytes(csv_bytes(GOOD_ROWS, "\r\n", final_newline=False))
        want, got = assert_same_load(lf), assert_same_load(crlf)
        for name in ("samples", "labels", "domain", "session"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_canonical_file_never_reaches_the_row_parse(self, tmp_path, monkeypatch):
        path = tmp_path / "ds.csv"
        path.write_bytes(csv_bytes(GOOD_ROWS[:2] + ["", ""] + GOOD_ROWS[2:]))
        want = per_row_load_csv(path)

        def row_parse(lines, lineno):
            raise AssertionError(f"block at line {lineno} parsed a row at a time")

        monkeypatch.setattr(qpose.data, "_rows_block", row_parse)
        assert load_csv(path).samples.tobytes() == want.samples.tobytes()

    def test_spellings_only_float_accepts_load_through_the_row_parse(self, tmp_path):
        rows = [list(row) for row in GOOD_ROWS]
        rows[CSV_BLOCK_ROWS][7], rows[3][0] = "1_0", "١"
        path = tmp_path / "ds.csv"
        path.write_bytes(csv_bytes(rows))
        ds = assert_same_load(path)
        assert ds.samples[CSV_BLOCK_ROWS, 4] == 10.0 and ds.labels[3] == 1

    @pytest.mark.parametrize("column", [0, 1, 2, 7, 2 + N_FEATURES])
    @pytest.mark.parametrize("at", [0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS + 5])
    def test_invalid_utf8_names_its_line(self, tmp_path, column, at):
        rows = [list(row) for row in GOOD_ROWS]
        rows[at][column] += "@"  # no other @ in the file
        path = tmp_path / "probe.csv"
        path.write_bytes(csv_bytes(rows).replace(b"@", b"\xff"))
        with pytest.raises(CsvFormatError, match=f"^line {at + 2}: ") as err:
            load_csv(path)
        assert str(err.value).isascii()  # the byte shows as \udcff

    def test_bad_row_ahead_of_an_invalid_byte_is_named(self, tmp_path):
        # both rows lie in one 8 KiB decode chunk, where a strict decode
        # would fail before either is parsed; the earlier one is named
        rows = [list(row) for row in GOOD_ROWS]
        rows[3][0], rows[5][7] = "9", rows[5][7] + "@"
        path = tmp_path / "probe.csv"
        path.write_bytes(csv_bytes(rows).replace(b"@", b"\xff"))
        with pytest.raises(CsvFormatError, match="^line 5: label 9 outside 0..7$"):
            load_csv(path)

    def test_invalid_utf8_header_is_a_bad_header(self, tmp_path):
        path = tmp_path / "probe.csv"
        path.write_bytes(csv_bytes(GOOD_ROWS).replace(b"b17", b"b\xff17", 1))
        with pytest.raises(CsvFormatError, match="^line 1: bad header"):
            load_csv(path)

    def test_multibyte_utf8_loads_as_strict_decoding_does(self, tmp_path):
        # two- and three-byte characters in every 8 KiB decode chunk
        rows = [list(row) for row in GOOD_ROWS]
        for at in range(0, len(rows), 7):
            rows[at][0] = "١" if at % 2 else "　" + rows[at][0]
        path = tmp_path / "ds.csv"
        path.write_bytes(csv_bytes(rows))
        assert len(assert_same_load(path)) == len(GOOD_ROWS)

    def test_loadtxt_behaviour_the_block_parse_relies_on(self):
        def line(label="0", domain="source", feature="0.5"):
            return f"{label},{domain},1,{feature}," + ",".join(["0.0"] * (N_FEATURES - 1)) + "\n"

        # refusals that send a block to the row parse
        for bad in (line(label="1.0"), line(feature="1_0"), line(feature="١٢"),
                    line(label=str(2**63))):
            with pytest.raises(ValueError):
                loadtxt_rows(bad)
        # CRLF endings, blank lines and spaces around a number read as LF does
        rows = loadtxt_rows(line().replace("\n", "\r\n"), "\n", line(feature=" 1.5 "))
        assert rows["features"][:, 0].tolist() == [0.5, 1.5]
        # what the NUL and separator count guards against: loadtxt accepts
        # these, float() refuses the first and Domain the second
        assert loadtxt_rows(line(feature="1\x1c"))["features"][0, 0] == 1.0
        assert loadtxt_rows(line(domain="source\x00"))["domain"][0] == "source"
        # a 7-character domain field cuts "sourcesource" to no domain
        assert loadtxt_rows(line(domain="sourcesource"))["domain"][0] == "sources"

    @given(at=st.sampled_from([0, 1, CSV_BLOCK_ROWS - 2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS]),
           edits=st.lists(FIELD_EDITS, min_size=1, max_size=3),
           blank=st.sampled_from([None, "", " "]), newline=st.sampled_from(["\n", "\r\n", "\r"]),
           final_newline=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_any_text_agrees_with_per_row_parse(self, at, edits, blank, newline, final_newline):
        # one edited row at line ``at`` of the rows, perhaps after a blank
        # or whitespace-only line, with two good rows after it
        rows = [list(row) for row in GOOD_ROWS[:at + 3]]
        for column, text in edits:
            rows[at][column] = text
        if blank is not None:
            rows.insert(at, blank)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "probe.csv"
            path.write_bytes(csv_bytes(rows, newline, final_newline))
            assert_same_load(path)


COLUMNS = ("samples", "labels", "domain", "session")


def forbid_parse(monkeypatch):
    """Make a parse of the CSV text fail the test: a load must hit."""
    def parse(path):
        raise AssertionError(f"{path} was parsed")

    monkeypatch.setattr(qpose.data, "_parse_csv", parse)


def write_records(path, *arrays):
    """A sidecar of ``arrays``, one .npy record each, as `load_csv` writes."""
    with open(path, "wb") as fh:
        for array in arrays:
            np.lib.format.write_array(fh, np.asarray(array), allow_pickle=True)


class TestSidecar:
    """`load_csv` keeps the parsed columns in ``<csv>.npy``, keyed by the
    CSV's sha256: a later load of the same bytes reads them and parses
    nothing, and a sidecar that fails any check is a miss and is rewritten."""

    @pytest.fixture()
    def csv(self, tmp_path):
        path = tmp_path / "ds.csv"
        write_csv(generate_synthetic(300, 260, ShiftSpec(seed=4)), path)
        return path

    @pytest.mark.parametrize("kind", ["fixture", "crlf", "row-parse"])
    def test_warm_load_equals_cold_parse_bit_for_bit(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "ds.csv"
        if kind == "fixture":
            write_csv(generate_synthetic(800, 1040, ShiftSpec(seed=7)), path)
        else:
            rows = [list(row) for row in GOOD_ROWS]
            if kind == "row-parse":  # both blocks go through the per-row fallback
                rows[3][7], rows[CSV_BLOCK_ROWS][4] = "1_0", "2_5"
            path.write_bytes(csv_bytes(rows, "\r\n" if kind == "crlf" else "\n"))
        cold = load_csv(path)
        assert (tmp_path / "ds.csv.npy").exists()
        if kind == "row-parse":
            assert cold.samples[3, 4] == 10.0 and cold.samples[CSV_BLOCK_ROWS, 1] == 25.0
        forbid_parse(monkeypatch)
        warm = load_csv(path)
        for name in COLUMNS:
            a, b = getattr(cold, name), getattr(warm, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            assert not a.flags.writeable and not b.flags.writeable, name
        assert cold.sha256 == warm.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.csv", "ds.csv.npy"]

    def test_edited_csv_loads_its_new_values(self, csv, monkeypatch):
        old = load_csv(csv)
        text = csv.read_text(encoding="utf-8")
        row = text.split("\n")[5]
        edited = row[:-1] + str((int(row[-1]) + 1) % 10)  # the last digit of a feature
        csv.write_text(text.replace(row, edited), encoding="utf-8")
        want = per_row_load_csv(csv)
        assert want.samples.tobytes() != old.samples.tobytes()
        got = load_csv(csv)
        forbid_parse(monkeypatch)
        warm = load_csv(csv)  # the sidecar was rewritten for the new bytes
        for name in COLUMNS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert getattr(warm, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("damage", ["digest", "nan", "label-9", "35-features", "cut",
                                        "cut-header", "object", "sixth-record", "fortran",
                                        "big-endian", "u7-domain", "rows-past-end", "empty"])
    def test_bad_sidecar_is_a_miss_and_is_rewritten(self, csv, monkeypatch, damage):
        good = load_csv(csv)
        sidecar = csv.with_name("ds.csv.npy")
        valid = sidecar.read_bytes()
        digest = np.array(dataset_sha256(csv))
        x, labels, domain, session = (np.array(getattr(good, name)) for name in COLUMNS)
        if damage == "digest":
            write_records(sidecar, np.array("0" * 64), x, labels, domain, session)
        elif damage == "nan":
            x[7, 3] = np.nan
            write_records(sidecar, digest, x, labels, domain, session)
        elif damage == "label-9":
            labels[0] = 9
            write_records(sidecar, digest, x, labels, domain, session)
        elif damage == "35-features":
            write_records(sidecar, digest, x[:, :35].copy(), labels, domain, session)
        elif damage == "cut":
            sidecar.write_bytes(valid[:-8])
        elif damage == "cut-header":
            sidecar.write_bytes(valid[:200])
        elif damage == "object":
            write_records(sidecar, digest, x, labels, domain.astype(object), session)
        elif damage == "sixth-record":
            write_records(sidecar, digest, x, labels, domain, session, session)
        elif damage == "fortran":
            write_records(sidecar, digest, np.asfortranarray(x), labels, domain, session)
        elif damage == "big-endian":
            write_records(sidecar, digest, x, labels.astype(">i8"), domain, session)
        elif damage == "u7-domain":
            write_records(sidecar, digest, x, labels, domain.astype("U7"), session)
        elif damage == "rows-past-end":
            # a header claiming 10**12 rows must not be allocated
            with open(sidecar, "wb") as fh:
                np.lib.format.write_array(fh, digest)
                np.lib.format.write_array_header_1_0(
                    fh, {"descr": "<f8", "fortran_order": False, "shape": (10**12, N_FEATURES)})
                fh.write(x.tobytes())
        else:
            sidecar.write_bytes(b"")
        parses = []
        parse = qpose.data._parse_csv
        monkeypatch.setattr(qpose.data, "_parse_csv",
                            lambda path: parses.append(path) or parse(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = load_csv(csv)
        assert parses == [csv]
        for name in COLUMNS:
            assert getattr(got, name).tobytes() == getattr(good, name).tobytes(), name
        assert sidecar.read_bytes() == valid

    def test_failed_replace_still_loads_and_leaves_no_temporary_file(self, csv, monkeypatch):
        def replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(qpose.data.os, "replace", replace)
        ds = load_csv(csv)
        assert ds.samples.tobytes() == per_row_load_csv(csv).samples.tobytes()
        assert [p.name for p in csv.parent.iterdir()] == ["ds.csv"]

    def test_csv_changed_during_the_load_writes_no_sidecar(self, csv, monkeypatch):
        parse = qpose.data._parse_csv

        def parse_then_touch(path):
            ds = parse(path)
            st = path.stat()
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
            return ds

        monkeypatch.setattr(qpose.data, "_parse_csv", parse_then_touch)
        assert load_csv(csv).sha256 is None
        assert [p.name for p in csv.parent.iterdir()] == ["ds.csv"]

    def test_bad_csv_writes_no_sidecar_and_keeps_its_error(self, csv):
        load_csv(csv)
        csv.write_text(csv.read_text(encoding="utf-8").replace("\n0,", "\n9,", 1),
                       encoding="utf-8")
        stale = csv.with_name("ds.csv.npy").read_bytes()
        with pytest.raises(CsvFormatError) as want:
            per_row_load_csv(csv)
        with pytest.raises(CsvFormatError) as err:
            load_csv(csv)
        assert str(err.value) == str(want.value)
        assert csv.with_name("ds.csv.npy").read_bytes() == stale
        fresh = csv.with_name("fresh.csv")
        fresh.write_bytes(csv.read_bytes())
        with pytest.raises(CsvFormatError):
            load_csv(fresh)
        assert not fresh.with_name("fresh.csv.npy").exists()


# Values where repr switches notation (1e-4, 1e16), the subnormal and
# normal extremes, and signed zero.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4,
               9.999999999999999e-05, 1e16, 9999999999999998.0, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, -1e-300]

FEATURE_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False, width=64))


def rows_dataset(features, meta):
    labels, domains, sessions = zip(*meta[: len(features)])
    return Dataset(features, list(labels), list(domains), list(sessions))


class TestCanonicalText:
    def test_text_and_file_equal_per_value_oracle(self, tmp_path):
        ds = generate_synthetic(2 * CSV_BLOCK_ROWS, 100, ShiftSpec(seed=5))
        feats = ds.samples.copy()
        feats.flat[: len(EDGE_FLOATS)] = EDGE_FLOATS
        ds = Dataset(feats, ds.labels, ds.domain, ds.session)
        want = csv_text_by_value(ds)
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        assert path.read_bytes() == want.encode("utf-8")
        assert dataset_sha256(path) == hashlib.sha256(want.encode("utf-8")).hexdigest()

    def test_empty_dataset_is_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        empty = Dataset(np.empty((0, N_FEATURES)), [], [], [])
        write_csv(empty, path)
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_digest_is_of_the_file_bytes_read_in_blocks(self, tmp_path):
        # any bytes, CRLF endings included; never more than a block in memory
        data = b"label,domain\r\n" + bytes(range(256)) * (4 * HASH_BLOCK_BYTES // 256)
        path = tmp_path / "big.csv"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            digest = dataset_sha256(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(data).hexdigest()
        assert peak < 1.5 * HASH_BLOCK_BYTES, peak

    @given(features=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(N_FEATURES)),
                               elements=FEATURE_FLOATS),
           meta=st.lists(st.tuples(st.integers(0, N_CLASSES - 1), st.sampled_from(Domain),
                                   st.integers(-3, 10**6)), min_size=40, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, features, meta):
        ds = rows_dataset(features, meta)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.csv"
            write_csv(ds, path)
            data = path.read_bytes()
            back = load_csv(path)
        assert back.samples.tobytes() == ds.samples.tobytes()
        for name in ("labels", "domain", "session"):
            assert getattr(back, name).tolist() == getattr(ds, name).tolist(), name
        assert canonical_sha256(back) == hashlib.sha256(data).hexdigest()


class TestGenerator:
    def test_same_seed_identical(self, tmp_path):
        spec = ShiftSpec(seed=11)
        a = generate_synthetic(100, 100, spec)
        b = generate_synthetic(100, 100, spec)
        assert canonical_sha256(a) == canonical_sha256(b)

    def test_different_seed_differs(self):
        a = generate_synthetic(50, 50, ShiftSpec(seed=1))
        b = generate_synthetic(50, 50, ShiftSpec(seed=2))
        assert canonical_sha256(a) != canonical_sha256(b)

    def test_target_counts_match_published_proportions(self):
        ds = generate_synthetic(800, 1040, ShiftSpec(seed=0))
        counts = ds.class_counts(Domain.TARGET)
        assert counts.tolist() == [151, 149, 173, 129, 88, 96, 119, 135]
        assert counts.sum() == 1040

    def test_null_shift_matches_source_distribution(self):
        spec = ShiftSpec(mean_offset_scale=0.0, feature_gain_spread=0.0,
                         noise_sigma_source=2.0, noise_sigma_target=2.0, seed=5)
        ds = generate_synthetic(4000, 4000, spec)
        src = ds.by_domain(Domain.SOURCE)
        tgt = ds.by_domain(Domain.TARGET)
        for c in range(N_CLASSES):
            xs = features_matrix(src)[src.labels == c]
            xt = features_matrix(tgt)[tgt.labels == c]
            n = min(len(xs), len(xt))
            bound = 3 * 2.0 / np.sqrt(n)
            assert np.abs(xs.mean(axis=0) - xt.mean(axis=0)).max() < bound * 2

    def test_source_data_independent_of_shift_knobs(self):
        weak = generate_synthetic(60, 60, ShiftSpec(mean_offset_scale=0.1, seed=9))
        strong = generate_synthetic(60, 60, ShiftSpec(mean_offset_scale=50.0, seed=9))
        a = features_matrix(weak.by_domain(Domain.SOURCE))
        b = features_matrix(strong.by_domain(Domain.SOURCE))
        assert (a == b).all()

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 10, ShiftSpec(seed=0))

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            ShiftSpec(feature_gain_spread=-0.1)

    @pytest.mark.parametrize("field", ["mean_offset_scale", "feature_gain_spread",
                                       "noise_sigma_source", "noise_sigma_target"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and nonnegative, got"):
            ShiftSpec(**{field: value})

    def test_non_finite_or_overflowing_shift_scale_rejected(self):
        for value in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="^shift_scale must be finite and nonnegative"):
                ShiftSpec().scaled(value)
        with pytest.raises(ValueError, match="^mean_offset_scale must be finite and nonnegative,"
                                             " got inf$"):
            ShiftSpec().scaled(1e308)

    def test_overflowing_draw_fails_the_finite_check_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in (ShiftSpec(feature_gain_spread=1e308),
                         ShiftSpec(noise_sigma_source=1e308, noise_sigma_target=1e308)):
                with pytest.raises(ValueError, match="features must be finite$"):
                    generate_synthetic(40, 40, spec)

    def test_rows_and_draws_pinned(self):
        # canonical-text digests of small datasets drawn by the per-sample
        # generator this one replaced; a zero-weight class draws no rows
        ds = generate_synthetic(40, 30, ShiftSpec(seed=3))
        assert canonical_sha256(ds) == (
            "36562c5a8eea3fec5c01555eb7270dce55bb1db34f1bfb8169a40b5c38599584")
        ds = generate_synthetic(13, 9, ShiftSpec(seed=21), source_weights=(1, 0, 2, 0, 3, 0, 4, 5))
        assert canonical_sha256(ds) == (
            "c234883576c12fea7dff76cb167ef2d08239123cd9501d983545793fba370966")

    def test_sessions_cycle_within_each_class(self):
        ds = generate_synthetic(100, 90, ShiftSpec(seed=1))
        for domain, sessions in ((Domain.SOURCE, SOURCE_SESSIONS),
                                 (Domain.TARGET, TARGET_SESSIONS)):
            part = ds.by_domain(domain)
            assert np.all(np.diff(part.labels) >= 0)
            for c in range(N_CLASSES):
                got = part.session[part.labels == c].tolist()
                assert got == [sessions[i % len(sessions)] for i in range(len(got))]

    def test_sanity_ceiling_zero_noise_zero_shift(self):
        spec = ShiftSpec(mean_offset_scale=0.0, feature_gain_spread=0.0,
                         noise_sigma_source=0.0, noise_sigma_target=0.0, seed=2)
        ds = generate_synthetic(80, 80, spec)
        # without noise or shift every sample, target included, sits on its
        # class anchor
        anchors = ds.samples[[np.flatnonzero(ds.labels == c)[0] for c in range(N_CLASSES)]]
        assert (ds.samples == anchors[ds.labels]).all()
        d = np.linalg.norm(anchors[None, :, :] - ds.samples[:, None, :], axis=2)
        assert (np.argmin(d, axis=1) == ds.labels).all()


class TestApportion:
    @given(total=st.integers(0, 500),
           weights=st.lists(st.floats(0.01, 10), min_size=1, max_size=12))
    @settings(max_examples=80)
    def test_sums_and_proportionality(self, total, weights):
        counts = apportion(total, weights)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)
        w = np.array(weights) / sum(weights)
        assert np.abs(np.array(counts) - w * total).max() < 1.0 + 1e-9

    def test_exact_split(self):
        assert apportion(10, [1, 1]) == [5, 5]
        assert apportion(3, [2, 1]) == [2, 1]


def indexed_rows(labels):
    """A source dataset whose row i has every feature equal to i."""
    index = np.arange(len(labels), dtype=np.float64)
    return rows(np.repeat(index[:, None], N_FEATURES, axis=1), labels)


def ids(part):
    return part.samples[:, 0].astype(int).tolist()


class TestSplit:
    def test_fraction_one_gives_empty_evaluation(self):
        split = split_labeled(tiny_dataset(), Domain.SOURCE, fraction=1.0, seed=0)
        assert len(split.evaluation) == 0 and not split.evaluation
        assert len(split.labeled) == 12

    def test_disjoint_and_exhaustive(self):
        ds = generate_synthetic(120, 120, ShiftSpec(seed=4))
        split = split_labeled(ds, Domain.SOURCE, fraction=0.3, seed=1)
        # continuous random features: the first one identifies a row
        ids = lambda part: set(part.samples[:, 0].tolist())
        assert ids(split.labeled) & ids(split.evaluation) == set()
        assert ids(split.labeled) | ids(split.evaluation) == ids(ds.by_domain(Domain.SOURCE))
        assert len(split.labeled) + len(split.evaluation) == len(ds.by_domain(Domain.SOURCE))

    def test_same_seed_identical(self):
        ds = generate_synthetic(200, 200, ShiftSpec(seed=8))
        a = split_labeled(ds, Domain.TARGET, count=50, seed=3)
        b = split_labeled(ds, Domain.TARGET, count=50, seed=3)
        assert np.array_equal(a.labeled.samples, b.labeled.samples)

    def test_count_and_fraction_mutually_exclusive(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            split_labeled(ds, Domain.SOURCE, fraction=0.5, count=3, seed=0)
        with pytest.raises(ValueError):
            split_labeled(ds, Domain.SOURCE, seed=0)

    def test_oversized_count_rejected(self):
        with pytest.raises(ValueError):
            split_labeled(tiny_dataset(), Domain.SOURCE, count=1000, seed=0)

    def test_stratified_when_all_classes_present(self):
        ds = generate_synthetic(400, 400, ShiftSpec(seed=1))
        split = split_labeled(ds, Domain.SOURCE, fraction=0.25, seed=0)
        assert split.stratified
        # every class contributes to the labeled subset
        assert set(split.labeled.labels.tolist()) == set(range(N_CLASSES))

    def test_unstratified_fallback_flag(self):
        samples = rows(np.zeros((10, N_FEATURES)), np.zeros(10, dtype=int))
        chosen, rest, stratified = stratified_subset(samples, 4, seed=0)
        assert not stratified
        assert len(chosen) == 4 and len(rest) == 6

    @given(labels=st.lists(st.integers(0, N_CLASSES - 1), min_size=1, max_size=60),
           data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_split_meets_class_quotas_property(self, labels, data, seed):
        samples = indexed_rows(labels)
        count = data.draw(st.integers(0, len(samples)), label="count")
        chosen, rest, stratified = stratified_subset(samples, count, seed)
        # disjoint and covering, each part in pool order
        assert sorted(ids(chosen) + ids(rest)) == list(range(len(labels)))
        assert ids(chosen) == sorted(ids(chosen)) and ids(rest) == sorted(ids(rest))
        per_class = np.bincount(labels, minlength=N_CLASSES)
        assert stratified == bool((per_class > 0).all())
        got = np.bincount(chosen.labels, minlength=N_CLASSES)
        assert got.sum() == count
        if stratified:
            assert got.tolist() == apportion(count, per_class)

        split = split_labeled(samples, Domain.SOURCE, count=count, seed=seed)
        assert ids(split.labeled) == ids(chosen) and ids(split.evaluation) == ids(rest)
        assert split.stratified == stratified

    @given(labels=st.lists(st.integers(0, N_CLASSES - 1), min_size=1, max_size=80),
           data=st.data(), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_subset_matches_per_sample_loop_oracle(self, labels, data, seed):
        count = data.draw(st.integers(0, len(labels)), label="count")
        chosen, rest, stratified = stratified_subset(indexed_rows(labels), count, seed)
        want_chosen, want_rest, want_stratified = loop_stratified_subset(labels, count, seed)
        assert ids(chosen) == want_chosen and ids(rest) == want_rest
        assert stratified == want_stratified
        assert chosen.labels.tolist() == [labels[i] for i in want_chosen]

    @given(count=st.integers(0, 40), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_subset_size_property(self, count, seed):
        ds = generate_synthetic(40, 40, ShiftSpec(seed=0))
        pool = ds.by_domain(Domain.SOURCE)
        chosen, rest, _ = stratified_subset(pool, count, seed)
        assert isinstance(chosen, Dataset) and isinstance(rest, Dataset)
        assert len(chosen) == count
        assert len(chosen) + len(rest) == len(pool)


class TestNormalizer:
    def test_fit_transform_standardizes(self):
        ds = generate_synthetic(300, 300, ShiftSpec(seed=12))
        src = ds.by_domain(Domain.SOURCE)
        norm = FeatureNormalizer.fit(src)
        z = norm.transform(features_matrix(src))
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_keeps_unit_scale(self):
        norm = FeatureNormalizer.fit(rows(np.full((5, N_FEATURES), 4.0), np.zeros(5, dtype=int)))
        z = norm.transform(np.full((2, N_FEATURES), 4.0))
        np.testing.assert_allclose(z, 0.0, atol=1e-15)

    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(3, N_FEATURES))
        assert (identity_normalizer().transform(x) == x).all()
