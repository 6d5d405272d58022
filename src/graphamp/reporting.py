"""Deterministic CSV writers.

Every file starts with a comment line carrying the schema version and
the config hash, so artifacts are self-describing and reruns of the
same (config, seed) are byte-identical.  Floats are rendered with
%.17g, enough digits to round-trip IEEE doubles exactly.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Sequence

from .errors import GraphampError

SCHEMA_VERSION = "graphamp-v1"


class ReportIOError(GraphampError):
    """Raised when an artifact cannot be written."""


def format_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, int):
        return str(v)
    s = str(v)
    if "," in s or '"' in s or "\n" in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence],
              config_hash: str) -> None:
    lines = [f"# schema={SCHEMA_VERSION} config_hash={config_hash}",
             ",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ReportIOError(f"{path}: row width {len(row)} != "
                                f"header width {len(header)}")
        lines.append(",".join(format_value(v) for v in row))
    payload = "\n".join(lines) + "\n"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as ex:
        raise ReportIOError(f"cannot write {path}: {ex}") from ex


def write_dict_rows(path: str, rows: List[Dict], config_hash: str,
                    header: Sequence[str]) -> None:
    """The columns `header` of each row; a missing key writes empty."""
    table = [[row.get(col, "") for col in header] for row in rows]
    write_csv(path, header, table, config_hash)
