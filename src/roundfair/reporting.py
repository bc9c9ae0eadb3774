"""Instance file parsing/serialization and deterministic CSV/JSON reports.

Instance files are plain text: optional ``# key: value`` metadata comments,
then a header line ``n T``, then T rows of n space-separated decimals (one row
per round).  Allocation files use the same grid layout.  Reports carry no
timestamps and format numbers to 12 significant digits, so identical inputs
always produce byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Allocation, CriticalEvent, Instance, Verdict, validate_allocation, validate_instance
from .errors import InstanceSyntaxError

REPORT_COLUMNS = (
    "algorithm",
    "p",
    "instance_name",
    "sw",
    "opt",
    "ratio",
    "fair_share",
    "envy_free",
    "critical_round",
    "critical_fraction",
)


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One report row: an audited run plus its identifying metadata."""

    algorithm: str
    p: float | None
    instance_name: str
    verdict: Verdict
    critical_event: CriticalEvent | None = None


def _parse_grid(document: str, kind: str):
    """Shared reader for the ``n T`` + rows layout.  Returns (matrix, metadata)."""
    metadata: dict[str, str] = {}
    header = None
    header_line = 0
    rows: list[list[float]] = []
    expected = None
    for line_no, raw in enumerate(document.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                metadata[key.strip()] = value.strip()
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise InstanceSyntaxError(
                    line_no, f"expected header 'n T', got {line!r}"
                )
            try:
                n, T = int(fields[0]), int(fields[1])
            except ValueError:
                raise InstanceSyntaxError(
                    line_no, f"header must hold two integers, got {line!r}"
                ) from None
            if n < 1 or T < 1:
                raise InstanceSyntaxError(line_no, f"header counts must be positive, got {line!r}")
            header = (n, T)
            header_line = line_no
            expected = n
            continue
        if len(fields) != expected:
            raise InstanceSyntaxError(
                line_no, f"expected {expected} values, got {len(fields)}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise InstanceSyntaxError(line_no, f"bad number: {exc}") from None
        if len(rows) > header[1]:
            raise InstanceSyntaxError(
                line_no, f"more than the declared {header[1]} rounds"
            )
    if header is None:
        raise InstanceSyntaxError(1, f"empty {kind} document")
    if len(rows) != header[1]:
        raise InstanceSyntaxError(
            header_line, f"declared {header[1]} rounds but found {len(rows)}"
        )
    return np.array(rows, dtype=float), metadata


def parse_instance_document(document: str) -> tuple[Instance, dict[str, str]]:
    """Parse an instance file and return the instance with its metadata."""
    matrix, metadata = _parse_grid(document, "instance")
    return validate_instance(matrix), metadata


def parse_instance(document: str) -> Instance:
    """Parse an instance file; syntax errors carry the offending line number."""
    return parse_instance_document(document)[0]


def parse_allocation(document: str) -> Allocation:
    """Parse an allocation file in the same grid layout."""
    matrix, _ = _parse_grid(document, "allocation")
    return validate_allocation(matrix)


def _write_grid(matrix: np.ndarray, comments=()) -> str:
    """The mirror of :func:`_parse_grid`: comment lines, the header ``n T``,
    then one row per round at shortest round-trip precision, so parsing the
    output reproduces the matrix bit-exactly."""
    T, n = matrix.shape
    lines = [*comments, f"{n} {T}"]
    lines += [" ".join(repr(v) for v in row) for row in matrix.tolist()]
    return "\n".join(lines) + "\n"


def serialize_instance(
    instance: Instance, name: str | None = None, source: str | None = None
) -> str:
    """Render an instance back to the file format, with its name and source."""
    metadata = (("name", name), ("source", source))
    comments = [f"# {key}: {value}" for key, value in metadata if value is not None]
    return _write_grid(instance.values, comments)


def serialize_allocation(allocation: Allocation) -> str:
    """Render an allocation in the same grid layout."""
    return _write_grid(allocation.fractions)


def _plain(val):
    """Coerce numpy scalars to builtins so both emitters treat them uniformly."""
    if isinstance(val, np.bool_):
        return bool(val)
    if isinstance(val, np.integer):
        return int(val)
    if isinstance(val, np.floating):
        return float(val)
    return val


def _sig12(x: float) -> str:
    return f"{x:.12g}"


def _sig12_number(x: float):
    if math.isinf(x):
        return str(x)
    return float(_sig12(x))


def _record_cells(record: RunRecord) -> tuple:
    verdict = record.verdict
    event = record.critical_event
    return (
        record.algorithm,
        record.p,
        record.instance_name,
        verdict.social_welfare,
        verdict.optimal_welfare,
        verdict.ratio,
        verdict.fair_share_ok,
        verdict.envy_free_ok,
        None if event is None else event.round_index,
        None if event is None else event.fraction,
    )


def emit_report(records, format: str = "csv") -> str:
    """Render audited runs as CSV or JSON with a fixed column order.

    Rows keep their input order; an empty input yields a header-only CSV or an
    empty JSON array.
    """
    return emit_table(REPORT_COLUMNS, [_record_cells(r) for r in records], format)


def _write_csv(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        out = []
        for val in row:
            val = _plain(val)
            if val is None or (isinstance(val, float) and math.isnan(val)):
                out.append("")
            elif isinstance(val, bool):
                out.append("true" if val else "false")
            elif isinstance(val, float):
                out.append(_sig12(val))
            else:
                out.append(str(val))
        writer.writerow(out)
    return buffer.getvalue()


def emit_table(columns, rows, format: str = "csv") -> str:
    """Render a generic table (sweep, search, replay, doomsday) deterministically."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format {format!r}")
    if format == "json":
        body = []
        for row in rows:
            obj = {}
            for key, val in zip(columns, row):
                val = _plain(val)
                if isinstance(val, float):
                    val = None if math.isnan(val) else _sig12_number(val)
                obj[key] = val
            body.append(obj)
        return json.dumps(body, indent=2) + "\n"
    return _write_csv(columns, rows)
