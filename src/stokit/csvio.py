"""CSV reading/writing with exact float round-trips.

Files are UTF-8, comma-separated, LF line endings, mandatory header row, no
trailing delimiter.  Values are rendered with 17 significant digits, which
reproduces the double bit pattern on parse.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError
from .processes import Ensemble, TimeGrid


def render_csv(header: list[str], columns) -> str:
    """Render a table given column by column.

    Numbers print as ``%.17g`` and string columns as they are; a column
    shorter than the longest is padded with empty cells.  Rows are formatted
    one at a time with one format string per run of equally padded rows.
    """
    lengths = [len(column) for column in columns]
    is_text = [isinstance(column[0], str) for column in columns]
    n_rows = max(lengths)
    if any(is_text) or min(lengths) < n_rows:
        table = np.full((n_rows, len(columns)), "", dtype=object)
    else:
        table = np.empty((n_rows, len(columns)))
    for j, column in enumerate(columns):
        table[:lengths[j], j] = column
    lines = [",".join(header) + "\n"]
    start = 0
    for stop in sorted(set(lengths)):
        row_format = ",".join("%s" if text or n < stop else "%.17g"
                              for text, n in zip(is_text, lengths)) + "\n"
        lines.extend(row_format % tuple(row.tolist()) for row in table[start:stop])
        start = stop
    return "".join(lines)


def write_csv(path, header: list[str], columns) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(header, columns))


def ensemble_to_csv(ensemble: Ensemble) -> str:
    header = ["time"] + [f"inst_{i}" for i in range(ensemble.num_instances)]
    return render_csv(header, [ensemble.grid.times, *ensemble.values])


def parse_ensemble_csv(text: str, source: str = "<input>") -> Ensemble:
    """Parse the `time,inst_0,...` schema back into an Ensemble.

    Every cell must be a finite number; errors in a row name its file line as
    ``source:LINE:``.  The returned ensemble carries no spec/seed provenance.
    """
    lines = text.splitlines()
    if not lines:
        raise SchemaError(f"{source}: empty file")
    header = lines[0].split(",")
    if header[0] != "time" or len(header) < 2:
        raise SchemaError(
            f"{source}: expected header 'time,inst_0,...', got {lines[0]!r}")
    for i, name in enumerate(header[1:]):
        if name != f"inst_{i}":
            raise SchemaError(f"{source}: unexpected column {name!r} at position {i + 1}")
    # (file line number, line) of each data row; blank lines are skipped.
    rows = [(number, line) for number, line in enumerate(lines[1:], start=2) if line]
    if len(rows) < 2:
        raise SchemaError(f"{source}: need at least 2 grid rows")
    for number, line in rows:
        if line.count(",") != len(header) - 1:
            raise SchemaError(f"{source}:{number}: expected {len(header)} columns, "
                              f"got {line.count(',') + 1}")
    try:
        data = np.loadtxt([line for _, line in rows], delimiter=",",
                          comments=None, ndmin=2)
    except ValueError as exc:
        for number, line in rows:
            for name, cell in zip(header, line.split(",")):
                try:
                    float(cell)
                except ValueError:
                    raise SchemaError(f"{source}:{number}: bad value {cell!r} "
                                      f"in column {name!r}") from None
        raise SchemaError(f"{source}: {exc}") from None
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise SchemaError(f"{source}:{rows[row][0]}: non-finite value "
                          f"{data[row, col]} in column {header[col]!r}")
    times = data[:, 0]
    dts = np.diff(times)
    dt = float(dts[0])
    if dt <= 0.0 or np.any(np.abs(dts - dt) > 1e-9 * max(1.0, abs(dt))):
        raise SchemaError(f"{source}: time column is not a uniform grid")
    if abs(times[0]) > 1e-12:
        raise SchemaError(f"{source}: time grid must start at 0, got {times[0]}")
    grid = TimeGrid(dt=dt, n_steps=len(times) - 1)
    return Ensemble(grid=grid, values=data[:, 1:].T, spec=None, seed=None)


def read_ensemble_csv(path) -> Ensemble:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ensemble_csv(fh.read(), source=str(path))
