"""CSV ingestion: the column-at-a-time parse against the csv reader loop."""

import csv
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relanom.dataset import Dataset, load_csv


def reference_load_csv(path, label_column=None):
    """Test oracle: the csv reader, a row and a cell at a time."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        has_label = label_column is not None and header and header[-1] == label_column
        ncol = len(header) - 1 if has_label else len(header)
        if ncol < 1:
            raise ValueError(f"{path}: no feature columns")
        rows, labels = [], []
        for lineno, raw in enumerate(reader, start=1):
            if len(raw) != len(header):
                raise ValueError(
                    f"{path}: row {lineno} has {len(raw)} cells, expected {len(header)}")
            parsed = []
            for j in range(ncol):
                cell = raw[j].strip()
                if not cell:
                    raise ValueError(
                        f"{path}: missing value at row {lineno}, column '{header[j]}'")
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: cannot parse '{cell}' at row {lineno}, "
                        f"column '{header[j]}'") from None
            rows.append(parsed)
            if has_label:
                labels.append(raw[-1].strip())
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = Dataset(np.array(rows, dtype=np.float64), header[:ncol])
    if has_label:
        return data, np.array(labels)
    return data


def outcome(load, path, label_column):
    try:
        got = load(path, label_column)
    except ValueError as exc:
        return "error", str(exc)
    data, labels = got if isinstance(got, tuple) else (got, None)
    return "ok", data.values.tobytes(), data.values.shape, data.columns, (
        None if labels is None else (labels.dtype, labels.tolist()))


HEADER = st.sampled_from(["a", " b ", "x1", "c d", "label", ""])
NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.sampled_from(["1", " -2.5 ", "1e3", "1_0", " 7", "-0"]))
ODD = st.sampled_from(["nan", "inf", "1__0", "", " ", "x", '"4"', '"1,5"', "\x00", "label"])
LABEL = st.sampled_from(["normal", " odd ", "", "1.5", "x y"])


def rare(draw, share):
    return draw(st.integers(0, share - 1)) == 0


@st.composite
def csv_texts(draw):
    """Mostly plain numeric CSV; now and then an odd cell, a short or long
    row, a blank line or CRLF line ends."""
    header = draw(st.lists(HEADER, min_size=1, max_size=4))
    labelled = draw(st.booleans())
    lines = [",".join(header + ["label"] * labelled)]
    for _ in range(draw(st.sampled_from(range(7)))):
        width = len(header) + (draw(st.sampled_from([-1, 1])) if rare(draw, 10) else 0)
        cells = [draw(ODD if rare(draw, 30) else NUMBER) for _ in range(width)]
        lines.append(",".join(cells + [draw(LABEL)] * labelled))
        if rare(draw, 20):
            lines.append("")
    end = "\r\n" if rare(draw, 4) else "\n"
    return end.join(lines) + (end if draw(st.booleans()) else "")


@settings(max_examples=100, deadline=None)
@given(text=csv_texts(), label_column=st.sampled_from([None, "label"]))
@example(text="a,b\n1\n2,3,4\n", label_column=None)  # a short and a long row, right total
@example(text='a,b\n"1,5",2\n', label_column=None)
@example(text="a,b\r\n1,2\r\n", label_column=None)
@example(text="a,b\n1,2\n\n3,4\n", label_column=None)
@example(text="a, label \nnan, x \n", label_column="label")
@example(text=" a \n 1_0 \n-2", label_column="label")
@example(text="\n", label_column=None)  # a blank header line: no feature columns
@example(text="\r\n", label_column=None)
@example(text="a,b\nx,1\n\n", label_column=None)  # a bad cell before a blank row
def test_load_csv_matches_the_csv_reader_loop(text, label_column):
    # Padded, quoted, CRLF, blank-line, nan, 1_0 and short-row inputs: the same
    # values, labels and error text.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert outcome(load_csv, path, label_column) == outcome(
            reference_load_csv, path, label_column)


def test_plain_csv_parses_every_row_and_label(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a, b ,label\n1,2.5,normal\n-3, 4e2 , odd \n")
    data, labels = load_csv(path, label_column="label")
    assert data.columns == ["a", "b"]
    assert data.values.tolist() == [[1.0, 2.5], [-3.0, 400.0]]
    assert labels.tolist() == ["normal", "odd"]
