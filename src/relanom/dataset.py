"""Tabular containers and CSV ingestion.

A :class:`Dataset` is an n x d table of real-valued observations with
column names.  The same container is used before and after preprocessing;
functions that require preprocessed input say so in their docstrings.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = ["Dataset", "load_csv", "write_csv", "atomic_write_text"]


@dataclass(frozen=True)
class Dataset:
    """Immutable table of float64 observations, one row per observation."""

    values: np.ndarray
    columns: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("dataset values must be a 2-D array")
        n, d = values.shape
        if n < 1 or d < 1:
            raise ValueError("dataset must have at least one row and one column")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(
                f"non-finite value at row {bad[0]}, column {bad[1]}"
            )
        columns = list(self.columns) if self.columns else [f"x{i + 1}" for i in range(d)]
        if len(columns) != d:
            raise ValueError(
                f"got {len(columns)} column names for {d} columns"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", columns)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def load_csv(path, label_column: str | None = None):
    """Read a headed CSV of decimal reals.

    Every cell must parse as a float; rows with missing or unparseable
    entries are rejected with an error naming the row and column.  When
    ``label_column`` is given and present as the trailing header, that
    column is split off and returned as a string array (it never enters
    the feature matrix).

    Returns ``Dataset`` or ``(Dataset, labels)`` when labels were split.
    """
    try:
        with open(path, newline="") as fh:
            cells, widths = _split_cells(fh.read())
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not widths:
        raise ValueError(f"{path}: empty file")
    width = widths[0]
    header, n = [h.strip() for h in cells[:width]], len(widths) - 1
    has_label = label_column is not None and header and header[-1] == label_column
    ncol = width - 1 if has_label else width
    if ncol < 1:
        raise ValueError(f"{path}: no feature columns")
    if not n:
        raise ValueError(f"{path}: no data rows")
    if widths.count(width) != len(widths):
        _raise_first_bad_row(path, header, ncol, cells, widths)
    values = np.empty((n, ncol))
    try:
        for j in range(ncol):
            values[:, j] = np.fromiter(map(float, cells[width + j::width]), np.float64, n)
    except ValueError:
        _raise_first_bad_row(path, header, ncol, cells, widths)
    data = Dataset(values, header[:ncol])
    if has_label:
        return data, np.array(list(map(str.strip, cells[2 * width - 1::width])))
    return data


def _split_cells(text: str) -> tuple[list[str], list[int]]:
    """The cells of CSV text in reading order and the number in each row, split
    as the csv reader splits them: with ``str.split`` when no cell can be quoted,
    end in CR, hold a NUL or exceed the reader's field limit, else by the reader."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if any(c in text for c in '"\r\0') or max(map(len, lines), default=0) > csv.field_size_limit():
        rows = list(csv.reader(io.StringIO(text, newline="")))
        return list(chain.from_iterable(rows)), list(map(len, rows))
    widths = [line.count(",") + 1 if line else 0 for line in lines]
    return ",".join(filter(None, lines)).split(",") if any(widths) else [], widths


def _raise_first_bad_row(path, header: list[str], ncol: int, cells: list[str],
                         widths: list[int]) -> None:
    """Raise the reader loop's error for the first row of the wrong width or
    the first missing or unparseable feature cell, in reading order."""
    end = widths[0]
    for lineno, width in enumerate(widths[1:], start=1):
        row, end = cells[end:end + width], end + width
        if width != len(header):
            raise ValueError(f"{path}: row {lineno} has {width} cells, expected {len(header)}")
        for name, cell in zip(header[:ncol], map(str.strip, row)):
            if not cell:
                raise ValueError(f"{path}: missing value at row {lineno}, column '{name}'")
            try:
                float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: cannot parse '{cell}' at row {lineno}, column '{name}'") from None
    raise AssertionError("a row failed to convert but every cell parses")


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of mixed scalars, formatting floats at full precision."""
    lines = [",".join(header)]
    lines += [",".join([_FORMAT.get(type(c), _format_cell)(c) for c in row]) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text) -> None:
    """Write a file atomically: temp file in the target directory, then rename.

    ``text`` is a string or an iterable of strings, written one at a time."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Formats by exact type, so a bool is no int; an np.float64 prints as its float.
_FORMAT = {float: repr, np.float64: float.__repr__, int: str, str: str}
_FORMAT.update(dict.fromkeys((bool, np.bool_), lambda cell: "1" if cell else "0"))


def _format_cell(cell) -> str:
    """Format a cell of another type: a numpy scalar as its Python value."""
    value = cell.item() if isinstance(cell, np.generic) else cell
    return _FORMAT.get(type(value), str)(value)
