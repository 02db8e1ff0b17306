"""Versioned text formats for matrices, designs, graphs and reports.

Matrix entries are written with 17 significant digits so doubles
round-trip exactly; reading back a written file reproduces the matrix
bit for bit. Report files consist of key-value sections; lines starting
with ``# `` carry timings and other non-reproducible annotations and do
not belong to the report body, which is byte-identical across reruns
with the same seeds and across worker counts.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .constructions import Frame, SteinerSystem
from .errors import InvalidParameterError
from .graphs import SimpleGraph
from .subsets import DEFAULT_BUDGET, require_budget

MATRIX_MAGIC = "ripmat"
STEINER_MAGIC = "ripsteiner"
GRAPH_MAGIC = "ripgraph"
REPORT_MAGIC = "ripreport"
FORMAT_VERSION = 1


def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_entry(z: complex, complex_flag: bool) -> str:
    if not complex_flag:
        return _fmt_float(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}j"


def _read_lines(path, magic: str, min_lines: int) -> list[str]:
    """Lines of an ASCII text file whose first line is '<magic> <version>'."""
    try:
        text = Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError:
        raise InvalidParameterError(f"{path}: not an ASCII text file") from None
    if len(text) < min_lines:
        raise InvalidParameterError(f"{path}: truncated file")
    parts = text[0].split()
    if len(parts) != 2 or parts[0] != magic:
        raise InvalidParameterError(f"{path}:1: expected '{magic} <version>' header")
    if parts[1] != str(FORMAT_VERSION):
        raise InvalidParameterError(f"{path}:1: unsupported format version {parts[1]}")
    return text


def _numbers(path, index: int, text: str, count: int | None = None, kind=int) -> list:
    """The whitespace-separated numbers on line ``index`` (0-based), ``count`` of them if given."""
    try:
        values = [kind(tok) for tok in text.split()]
    except ValueError as exc:
        raise InvalidParameterError(f"{path}:{index + 1}: {exc}") from None
    if count is not None and len(values) != count:
        raise InvalidParameterError(
            f"{path}:{index + 1}: expected {count} values, got {len(values)}"
        )
    return values


def _build(path, make, *args):
    """``make(*args)``, naming the file in the domain error a malformed file raises."""
    try:
        return make(*args)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from None


def write_matrix(path, frame: Frame) -> None:
    complex_flag = not frame.is_real
    lines = [
        f"{MATRIX_MAGIC} {FORMAT_VERSION}",
        f"rows {frame.m}",
        f"cols {frame.n}",
        f"complex {int(complex_flag)}",
    ]
    if frame.label:
        lines.append(f"label {frame.label}")
    for row in frame.matrix:
        lines.append(" ".join(_fmt_entry(z, complex_flag) for z in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_matrix(path) -> Frame:
    text = _read_lines(path, MATRIX_MAGIC, 1)
    rows = cols = None
    complex_flag = False
    label = ""
    pos = 1
    while pos < len(text):
        line = text[pos]
        key, _, value = line.partition(" ")
        if key in ("rows", "cols", "complex"):
            (number,) = _numbers(path, pos, value, 1)
            if key == "rows":
                rows = number
            elif key == "cols":
                cols = number
            else:
                complex_flag = bool(number)
        elif key == "label":
            label = value
        else:
            break
        pos += 1
    if rows is None or cols is None:
        raise InvalidParameterError(f"{path}: missing rows/cols header")
    if rows < 1 or cols < 1:
        raise InvalidParameterError(f"{path}: need rows, cols >= 1, got {rows}, {cols}")
    if len(text) - pos < rows:
        raise InvalidParameterError(f"{path}: expected {rows} data rows")
    kind = complex if complex_flag else float
    data = [_numbers(path, pos + i, text[pos + i], cols, kind) for i in range(rows)]
    return _build(path, Frame, data, label)


def write_steiner(path, system: SteinerSystem) -> None:
    lines = [f"{STEINER_MAGIC} {FORMAT_VERSION}", f"{system.v} {system.k}"]
    lines.extend(" ".join(str(x) for x in block) for block in system.blocks)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_steiner(path) -> SteinerSystem:
    text = _read_lines(path, STEINER_MAGIC, 2)
    v, k = _numbers(path, 1, text[1], 2)
    blocks = tuple(
        tuple(_numbers(path, i, line)) for i, line in enumerate(text[2:], start=2) if line.strip()
    )
    return _build(path, SteinerSystem, v, k, blocks)


def write_graph(path, g: SimpleGraph) -> None:
    lines = [f"{GRAPH_MAGIC} {FORMAT_VERSION}", f"vertices {g.n}"]
    lines.extend(f"{v}: " + " ".join(str(w) for w in g.neighbors(v)) for v in range(g.n))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_graph(path) -> SimpleGraph:
    text = _read_lines(path, GRAPH_MAGIC, 2)
    key, _, value = text[1].partition(" ")
    if key != "vertices":
        raise InvalidParameterError(f"{path}:2: missing vertex count")
    (n,) = _numbers(path, 1, value, 1)
    if n < 0:
        raise InvalidParameterError(f"{path}:2: negative vertex count {n}")
    # the adjacency matrix is dense
    require_budget(n * n, DEFAULT_BUDGET, f"{path}:2: a graph on {n} vertices", "adjacency entries")
    edges = []
    for i, line in enumerate(text[2:], start=2):
        if not line.strip():
            continue
        head, _, rest = line.partition(":")
        ends = _numbers(path, i, head, 1) + _numbers(path, i, rest)
        if not all(0 <= x < n for x in ends):
            raise InvalidParameterError(f"{path}:{i + 1}: vertex out of range for {n} vertices")
        edges.extend((ends[0], w) for w in ends[1:])
    return _build(path, SimpleGraph.from_edges, n, edges)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class ReportWriter:
    """Accumulates a key-value report with comment-only timing lines."""

    def __init__(self, tool_version: str):
        self._lines: list[str] = [f"{REPORT_MAGIC} {FORMAT_VERSION}", f"tool: ripcert {tool_version}"]

    def section(self, name: str) -> None:
        self._lines.append(f"[{name}]")

    def kv(self, key: str, value) -> None:
        self._lines.append(f"{key}: {self.render(value)}")

    def comment(self, text: str) -> None:
        self._lines.append(f"# {text}")

    @staticmethod
    def render(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(float(value))
        if isinstance(value, (np.floating,)):
            return repr(float(value))
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (tuple, list)):
            return ",".join(ReportWriter.render(v) for v in value)
        if value is None:
            return "none"
        return str(value)

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.text(), encoding="ascii")


def report_body(text: str) -> str:
    """Report text without comment lines (the reproducible part)."""
    return "\n".join(line for line in text.splitlines() if not line.startswith("# ")) + "\n"
