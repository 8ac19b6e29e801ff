"""Read back the CSV and JSON tables that the branchvol CLI emits."""

import json

from branchvol.cli import SCHEMA_VERSION

_NON_FINITE = ("inf", "-inf", "nan")


def parse_table_csv(text: str) -> tuple[list[str], list[list]]:
    """Read back a CSV table emitted by the CLI."""
    lines = [ln for ln in text.split("\n") if ln != ""]
    columns = lines[0].split(",")
    rows = [[_parse_cell(c) for c in ln.split(",")] for ln in lines[1:]]
    return columns, rows


def _parse_cell(cell: str):
    if cell == "":
        return None
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return float(cell)
    except ValueError:
        return cell


def parse_table_json(text: str) -> tuple[list[str], list[list]]:
    """Read back a JSON table emitted by the CLI; the cells "inf", "-inf"
    and "nan" read as floats."""
    payload = json.loads(text)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {payload.get('schema_version')!r}")
    rows = [[float(c) if isinstance(c, str) and c in _NON_FINITE else c for c in row]
            for row in payload["rows"]]
    return payload["columns"], rows
