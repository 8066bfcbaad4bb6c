"""Per-iteration run metrics and their CSV/JSON serialization.

Row columns are fixed: ``iter, loss, secs_per_iter, fwd_count, bwd_count``
followed by one ``gamma.<tensor>`` column per constrained tensor. Float cells
are written with ``repr`` so that a run is byte-reproducible (wall-clock
seconds are the one intentionally nondeterministic column). The end-of-run
summary (accuracies, constraint audit, final radii) lives in a separate JSON
file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import ConfigError, DomainError

__all__ = ["FIXED_COLUMNS", "RunRecord", "emit_metrics", "write_summary"]

FIXED_COLUMNS = ("iter", "loss", "secs_per_iter", "fwd_count", "bwd_count")


def _cell(value) -> str:
    if isinstance(value, bool):
        raise DomainError("boolean cells are not part of the record format")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# JSON's spelling of the float cells that are not finite
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass
class RunRecord:
    gamma_names: tuple[str, ...] = ()
    rows: list[tuple] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    # (row, its CSV line) for the rows formatted so far; see row_lines
    _lines: list = field(default_factory=list, init=False, repr=False, compare=False)

    def columns(self) -> tuple[str, ...]:
        return FIXED_COLUMNS + tuple(f"gamma.{name}" for name in self.gamma_names)

    def add_row(
        self,
        iteration: int,
        loss: float,
        secs_per_iter: float,
        fwd_count: int,
        bwd_count: int,
        gammas: dict[str, float] | None = None,
    ) -> None:
        gammas = gammas or {}
        missing = [n for n in self.gamma_names if n not in gammas]
        if missing:
            raise DomainError(f"row missing constraint values for {missing}")
        row = (int(iteration), float(loss), float(secs_per_iter), int(fwd_count),
               int(bwd_count)) + tuple(float(gammas[n]) for n in self.gamma_names)
        self.rows.append(row)

    def row_lines(self) -> list[str]:
        """Each row's cells joined by commas, as ``metrics.csv`` holds them.

        A row is formatted once while it stays in ``rows``: both formats
        are built from these lines.
        """
        done = self._lines
        if len(done) > len(self.rows) or any(row is not kept for row, (kept, _) in
                                             zip(self.rows, done)):
            done.clear()
        done.extend((row, ",".join(map(_cell, row))) for row in self.rows[len(done):])
        return [line for _, line in done]

    # column accessors used by analysis and the acceptance suite

    def column(self, name: str) -> list:
        cols = self.columns()
        if name not in cols:
            raise DomainError(f"unknown column {name!r}; have {cols}")
        idx = cols.index(name)
        return [row[idx] for row in self.rows]

    def gamma_matrix(self) -> list[list[float]]:
        """Rows of per-tensor constraint values, one list per iteration."""
        k = len(FIXED_COLUMNS)
        return [list(row[k:]) for row in self.rows]


def _to_csv_text(record: RunRecord) -> str:
    return "\n".join([",".join(record.columns()), *record.row_lines()]) + "\n"


def _to_json_text(record: RunRecord) -> str:
    """``json.dumps`` of the record with ``indent=2, sort_keys=True``, its rows from the CSV lines.

    JSON writes an int or a float as the CSV does, but for the non-finite
    floats; each row is a list with one cell per line.
    """
    text = json.dumps({"columns": list(record.columns()), "rows": [],
                       "summary": dict(record.summary)}, indent=2, sort_keys=True)
    lines = record.row_lines()
    if lines:
        # of the cells, only nan, inf and -inf hold an "n"
        rows = "\n    ],\n    [\n      ".join(
            (",".join(_JSON_NONFINITE.get(c, c) for c in line.split(","))
             if "n" in line else line).replace(",", ",\n      ")
            for line in lines)
        text = text.replace('\n  "rows": [],\n',
                            f'\n  "rows": [\n    [\n      {rows}\n    ]\n  ],\n', 1)
    return text + "\n"


def emit_metrics(record: RunRecord, fmt: str, path) -> None:
    """Write the iteration rows as CSV or JSON (same keys either way)."""
    if fmt == "csv":
        payload = _to_csv_text(record)
    elif fmt == "json":
        payload = _to_json_text(record)
    else:
        raise ConfigError(f"unknown metrics format {fmt!r}; choose 'csv' or 'json'")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(payload)


def write_summary(record: RunRecord, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(dict(record.summary), f, indent=2, sort_keys=True)
        f.write("\n")
