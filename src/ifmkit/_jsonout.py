"""The text of every JSON report: `dumps`, exactly what ``json.dumps`` writes
with an indent of 2.

The stdlib encodes with its C encoder only when ``indent`` is None; with
an indent it walks the tree token by token in Python.  `dumps` gets the
same text from C-encoder calls instead, one per container whose values
are all plain scalars and one per table (a list of non-empty lists of
plain scalars, such as the all-pairs witness rows of a solve report).
The item separator ``",\\n" + pad`` makes the C encoder lay out one level
of indentation; everything else is recursion that mirrors the stdlib's.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

# Exactly these types: a subclass (np.float64, an IntEnum) or an
# unsupported leaf goes through the recursion, which encodes it (or raises
# the TypeError) as the stdlib does.
_PLAIN = frozenset((str, int, float, bool, type(None)))
_ROWS = frozenset((list, tuple))
_PAD = "  "


def _scalars(values) -> bool:
    return _PLAIN.issuperset(map(type, values))


def _key(key) -> str:
    """A dict key as the stdlib converts it."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _encode(o, level: int) -> str:
    if isinstance(o, (list, tuple)):
        return _list(o, level) if o else "[]"
    if isinstance(o, dict):
        return _dict(o, level) if o else "{}"
    if type(o) is str:
        return encode_basestring_ascii(o)
    if type(o) is int or (type(o) is float and math.isfinite(o)):
        return repr(o)
    if o is None:
        return "null"
    return json.dumps(o)  # bool, NaN, infinities, subclasses; or json's TypeError


def _list(o, level: int) -> str:
    pad = "\n" + _PAD * (level + 1)
    end = "\n" + _PAD * level
    if _scalars(o):
        flat = json.dumps(o, separators=("," + pad, ": "))
        return "[" + pad + flat[1:-1] + end + "]"
    if _ROWS.issuperset(map(type, o)) and all(o) and _scalars(chain.from_iterable(o)):
        # An encoded string holds no raw newline, so "],\n<cell pad>[" can
        # only be the boundary between two rows.
        cell_pad = pad + _PAD
        flat = json.dumps(o, separators=("," + cell_pad, ": "))
        rows = flat[2:-2].replace("]," + cell_pad + "[", pad + "]," + pad + "[" + cell_pad)
        return "[" + pad + "[" + cell_pad + rows + pad + "]" + end + "]"
    return "[" + pad + ("," + pad).join([_encode(v, level + 1) for v in o]) + end + "]"


def _dict(o, level: int) -> str:
    pad = "\n" + _PAD * (level + 1)
    end = "\n" + _PAD * level
    if _scalars(o) and _scalars(o.values()):
        flat = json.dumps(o, separators=("," + pad, ": "))
        return "{" + pad + flat[1:-1] + end + "}"
    body = ("," + pad).join([encode_basestring_ascii(_key(k)) + ": " + _encode(v, level + 1)
                             for k, v in o.items()])
    return "{" + pad + body + end + "}"


def dumps(obj) -> str:
    """The text ``json.dumps`` writes for ``obj`` with an indent of 2,
    character for character, for any ``obj`` that ``json`` accepts; what
    it rejects raises the same TypeError.  Each container of plain scalars
    (str, int, float, bool, None) and each table of them is encoded by one
    C-encoder call."""
    return _encode(obj, 0)
