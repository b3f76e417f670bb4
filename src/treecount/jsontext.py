"""The JSON text of the CLI's reports and of the pipeline trace.

``dumps(payload)`` returns exactly ``json.dumps(payload, sort_keys=True,
indent=2) + "\\n"``.  With ``indent`` set, ``json`` falls back to its
pure-Python encoder, which passes every token through a chain of nested
generators.  This writer appends whole lines instead, and writes a list of
plain ints, the bulk of a decomposition or a trace, with one ``join``.
Anything it does not know, such as a dict with non-string keys or a numpy
integer, goes to ``json.dumps`` itself, so the text, or the TypeError, is
json's own.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

_INF = float("inf")


def dumps(payload) -> str:
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _float(x: float) -> str:
    # json's spelling of the floats that have no JSON literal
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _write(value, nl: str, out: list[str]) -> None:
    """Append value's text to out; nl is a newline and the current indent.

    The tests are json's, in json's order: a bool is an int, and a numpy
    float64 is a float.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, value)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(value, dict) and all(type(key) is str for key in value):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + _quote(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        # json's text has no raw newline inside a string, so indenting
        # every line of it places it at this depth
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", nl))
