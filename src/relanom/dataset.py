"""Tabular containers and CSV ingestion.

A :class:`Dataset` is an n x d table of real-valued observations with
column names.  The same container is used before and after preprocessing;
functions that require preprocessed input say so in their docstrings.
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass, field

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

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


def load_csv(path, label_column: str | None = None):
    """Read a headed CSV of decimal reals.

    Every cell must parse as a float; rows with missing or unparseable
    entries are rejected with an error naming the row and column.  When
    ``label_column`` is given and present as the trailing header, that
    column is split off and returned as a string array (it never enters
    the feature matrix).

    Returns ``Dataset`` or ``(Dataset, labels)`` when labels were split.
    """
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
        rows: list[list[float]] = []
        labels: list[str] = []
        for lineno, raw in enumerate(reader, start=1):
            if len(raw) != len(header):
                raise ValueError(
                    f"{path}: row {lineno} has {len(raw)} cells, expected {len(header)}"
                )
            parsed = []
            for j in range(ncol):
                cell = raw[j].strip()
                if not cell:
                    raise ValueError(
                        f"{path}: missing value at row {lineno}, column '{header[j]}'"
                    )
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: cannot parse '{cell}' at row {lineno}, "
                        f"column '{header[j]}'"
                    ) from None
            rows.append(parsed)
            if has_label:
                labels.append(raw[-1].strip())
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = Dataset(np.array(rows, dtype=np.float64), header[:ncol])
    if has_label:
        return data, np.array(labels)
    return data


def write_csv(path, header: list[str], rows) -> None:
    """Write rows of mixed scalars, formatting floats at full precision."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(c) for c in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text: str) -> None:
    """Write a file atomically: temp file in the target directory, then rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_cell(cell) -> str:
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    if isinstance(cell, (bool, np.bool_)):
        return "1" if cell else "0"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return str(cell)
