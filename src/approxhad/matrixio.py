"""Text formats: +/- matrices, CSV alternatives, orthogonal matrix CSV.

The canonical sign-matrix format is n lines of n characters from {+, -},
LF line endings, trailing newline; the parser tolerates CRLF and a missing
final newline and reports bad input by line and column.  Writing then
parsing is the identity.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .linalg import SignMatrix

__all__ = [
    "ParseError",
    "parse_sign_matrix",
    "write_sign_matrix",
    "parse_sign_matrix_csv",
    "write_conference_matrix",
    "write_orth_csv",
    "load_matrix_file",
]


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


def parse_sign_matrix(text: str) -> SignMatrix:
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input")
    n = len(lines[0])
    for i, line in enumerate(lines, start=1):
        if len(line) != n:
            raise ParseError(
                f"ragged line: expected {n} characters, got {len(line)}", line=i
            )
        if line.strip("+-"):
            j = next(j for j, ch in enumerate(line, start=1) if ch not in "+-")
            raise ParseError(f"illegal character {line[j - 1]!r}", line=i, column=j)
    if len(lines) != n:
        raise ParseError(f"expected {n} lines for a square matrix, got {len(lines)}")
    plus = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8) == ord("+")
    return SignMatrix(np.where(plus, 1, -1).reshape(n, n))


def write_sign_matrix(A: SignMatrix) -> str:
    n = A.n
    text = np.full((n, n + 1), ord("\n"), dtype=np.uint8)
    text[:, :n] = np.where(A.entries > 0, ord("+"), ord("-"))
    return text.tobytes().decode("ascii")


def parse_sign_matrix_csv(text: str) -> SignMatrix:
    """CSV alternative: rows of integer +-1 values."""
    rows = []
    for i, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row:
            continue
        try:
            rows.append([int(v) for v in row])
        except ValueError:
            raise ParseError("non-integer CSV value", line=i)
        if len(row) != len(rows[0]):
            raise ParseError(f"ragged row: expected {len(rows[0])} values, got {len(row)}", line=i)
    if not rows:
        raise ParseError("empty input")
    return SignMatrix(np.array(rows, dtype=np.int64))


def write_conference_matrix(C: np.ndarray) -> str:
    """Conference matrices carry a zero diagonal, written as '0'.

    This is intentionally not parseable by parse_sign_matrix: files in
    this format are not sign matrices.
    """
    chars = {-1: "-", 0: "0", 1: "+"}
    return "\n".join("".join(chars[int(v)] for v in row) for row in C) + "\n"


def write_orth_csv(entries: np.ndarray) -> str:
    """17 significant digits: exact binary64 round trip."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    for row in entries:
        w.writerow([f"{v:.17g}" for v in row])
    return out.getvalue()


def load_matrix_file(path: str) -> SignMatrix:
    """Dispatch on content: commas mean the CSV alternative format."""
    with open(path) as f:
        text = f.read()
    if "," in text:
        return parse_sign_matrix_csv(text)
    return parse_sign_matrix(text)
