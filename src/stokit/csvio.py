"""CSV reading/writing with exact float round-trips.

Files are UTF-8, comma-separated, LF line endings, mandatory header row, no
trailing delimiter.  Values are rendered with 17 significant digits, which
reproduces the double bit pattern on parse.  Tables are written and read in
pieces of whole rows of about `_PIECE_CELLS` cells, so the memory beyond a
table's own arrays is one piece, not the file's text.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import SchemaError
from .processes import Ensemble, TimeGrid

_PIECE_CELLS = 2 ** 16  # cells in one piece of rows: 512 KB of float64


def _lines(header: list[str], columns):
    """Yield `render_csv`'s lines, gathering a piece of rows at a time and
    formatting each run of equally padded rows with one format string."""
    lengths = [len(column) for column in columns]
    is_text = [isinstance(column[0], str) for column in columns]
    padded = any(is_text) or min(lengths) < max(lengths)
    step = max(1, _PIECE_CELLS // len(columns))
    yield ",".join(header) + "\n"
    runs = sorted(set(lengths))  # each run of rows ends where a column ends
    for start, stop in zip([0, *runs], runs):
        row_format = ",".join("%s" if text or n < stop else "%.17g"
                              for text, n in zip(is_text, lengths)) + "\n"
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            table = np.empty((hi - lo, len(columns)), dtype=object if padded else float)
            for j, (column, n) in enumerate(zip(columns, lengths)):
                table[:, j] = column[lo:hi] if n >= stop else ""
            for row in table:
                yield row_format % tuple(row.tolist())


def render_csv(header: list[str], columns) -> str:
    """Render a table given column by column: numbers as ``%.17g``, strings
    as they are, and empty cells past the end of a shorter column."""
    return "".join(_lines(header, columns))


def write_csv(path, header: list[str], columns) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_lines(header, columns))


def ensemble_table(ensemble: Ensemble) -> tuple[list[str], list]:
    header = ["time"] + [f"inst_{i}" for i in range(ensemble.num_instances)]
    return header, [ensemble.grid.times, *ensemble.values]


def ensemble_to_csv(ensemble: Ensemble) -> str:
    return render_csv(*ensemble_table(ensemble))


def _parse_piece(piece: list, header: list[str], source: str) -> np.ndarray:
    """Parse ``(file line number, line)`` rows; raise at the first faulty one."""
    error = None
    try:
        block = np.loadtxt([line for _, line in piece], delimiter=",",
                           comments=None, ndmin=2)
        if block.shape[1] == len(header) and np.isfinite(block).all():
            return block
    except ValueError as exc:
        error = exc
    for number, line in piece:
        if len(cells := line.split(",")) != len(header):
            raise SchemaError(f"{source}:{number}: expected {len(header)} columns, "
                              f"got {len(cells)}")
        for name, cell in zip(header, cells):
            try:
                value = float(cell)
            except ValueError:
                raise SchemaError(f"{source}:{number}: bad value {cell!r} "
                                  f"in column {name!r}") from None
            if not np.isfinite(value):
                raise SchemaError(f"{source}:{number}: non-finite value "
                                  f"{value} in column {name!r}")
    raise SchemaError(f"{source}: {error}")


def _parse_lines(lines, source: str) -> Ensemble:
    """Count the rows of ``lines()`` (each call starts over), then parse them a
    piece at a time into the ensemble's array."""
    rows = lines()
    if (first := next(rows, None)) is None:
        raise SchemaError(f"{source}: empty file")
    header = first.split(",")
    if header[0] != "time" or len(header) < 2:
        raise SchemaError(
            f"{source}: expected header 'time,inst_0,...', got {first!r}")
    for i, name in enumerate(header[1:]):
        if name != f"inst_{i}":
            raise SchemaError(f"{source}: unexpected column {name!r} at position {i + 1}")
    n_rows = sum(1 for line in rows if line)  # blank lines are skipped
    times, values = np.empty(n_rows), np.empty((len(header) - 1, n_rows))
    rows = ((n, line) for n, line in enumerate(lines(), 1) if n > 1 and line)
    step, done = max(1, _PIECE_CELLS // len(header)), 0
    while piece := list(itertools.islice(rows, step)):
        block = _parse_piece(piece, header, source)
        times[done:done + len(block)] = block[:, 0]
        values[:, done:done + len(block)] = block[:, 1:].T
        done += len(block)
    if done != n_rows:  # the file lost rows between the two passes
        raise SchemaError(f"{source}: file changed while being read")
    if n_rows < 2:
        raise SchemaError(f"{source}: need at least 2 grid rows")
    dts = np.diff(times)
    dt = float(dts[0])
    if dt <= 0.0 or np.any(np.abs(dts - dt) > 1e-9 * max(1.0, abs(dt))):
        raise SchemaError(f"{source}: time column is not a uniform grid")
    if abs(times[0]) > 1e-12:
        raise SchemaError(f"{source}: time grid must start at 0, got {times[0]}")
    grid = TimeGrid(dt=dt, n_steps=n_rows - 1)
    return Ensemble(grid=grid, values=values, spec=None, seed=None)


def parse_ensemble_csv(text: str, source: str = "<input>") -> Ensemble:
    """Parse the `time,inst_0,...` schema back into an Ensemble.

    Every cell must be a finite number; errors in a row name its file line as
    ``source:LINE:``.  The returned ensemble carries no spec/seed provenance.
    """
    lines = text.splitlines()
    return _parse_lines(lambda: iter(lines), source)


def read_ensemble_csv(path) -> Ensemble:
    """`parse_ensemble_csv` of a file whose lines end in LF, CRLF or CR."""
    def lines():
        with open(path, "r", encoding="utf-8") as fh:
            yield from (line.rstrip("\n") for line in fh)
    return _parse_lines(lines, str(path))
