"""Exception types shared across the package, and the line reader that
frames every text format: a ``<kind> <int> <int>`` header, then a known
count of nonblank record lines, refused at the file's own line numbers.
"""

from __future__ import annotations

from typing import Iterator


class InputError(ValueError):
    """Raised when caller-supplied data violates a documented precondition."""


class ParseError(InputError):
    """Raised on malformed text input; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ProcedureError(RuntimeError):
    """Raised when an iterative procedure fails to reach its goal.

    Carries whatever diagnostic payload the procedure produced so far
    (last residual, surviving heavy edges, partial trace, ...).
    """

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def read_header(
    text: str, kinds: tuple[str, ...], usage: str, counts: str
) -> tuple[list[str], str, int, int]:
    """Split ``text`` into lines and read its header ``<kind> <a> <b>``."""
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    head = lines[0].split()
    if len(head) != 3 or head[0] not in kinds:
        raise ParseError(1, f"expected header {usage}")
    try:
        return lines, head[0], int(head[1]), int(head[2])
    except ValueError:
        raise ParseError(1, f"non-integer {counts}") from None


def read_body(
    lines: list[str], expected: int, noun: str, fields: str
) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) per nonblank record; the count is checked first, at the call."""
    found = sum(1 for ln in lines[1:] if ln.strip())
    if found != expected:
        raise ParseError(len(lines), f"expected {expected} {noun} lines, found {found}")
    width = len(fields.split())

    def records():
        for no, ln in enumerate(lines[1:], 2):
            tokens = ln.split()
            if not tokens:
                continue
            if len(tokens) != width:
                raise ParseError(no, f"expected '{fields}'")
            yield no, tokens
    return records()
