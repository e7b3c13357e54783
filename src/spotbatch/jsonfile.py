"""Reading the package's JSON input files, and the shape and number rules all of them follow.

A value of the wrong shape raises ParseError; a value that is not a number,
or not a whole one where a count is needed, raises ValidationError.  Each
error names the key path of the value (``instances[3].vcpus``), and ``load``
puts the file's path in front.  An object whose keys are fixed, rather than
data such as region names, rejects a key it does not know, so a misspelled
optional key cannot silently take its default.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .errors import ParseError, ValidationError


def read_json(path):
    """Parse the JSON file at ``path``; malformed JSON and non-finite numbers raise ParseError.

    Python's ``json`` accepts ``NaN`` and ``Infinity`` and reads an
    overflowing literal such as ``1e400`` as infinity.  No input of this
    package has a use for either, and a NaN would flow through a run into
    its totals, so both are rejected here.
    """

    def reject(literal: str):
        raise ParseError(f"{path}: {literal} is not a finite number")

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            reject(literal)
        return value

    try:
        return json.loads(Path(path).read_text(), parse_constant=reject, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc


def load(path, parse):
    """``parse(document)`` of the JSON file at ``path``; each line of an input error starts with the path."""
    data = read_json(path)
    try:
        return parse(data)
    except (ParseError, ValidationError) as exc:
        raise type(exc)("\n".join(f"{path}: {line}" for line in str(exc).splitlines())) from None


Keys = Tuple[str, ...]

_SHAPES = {dict: "a JSON object", list: "a list", str: "a string", bool: "true or false"}


def shaped(value, kind: type, key: str, required: Keys = (), optional: Optional[Keys] = None):
    """``value`` when it is a ``kind`` holding every ``required`` key; otherwise a ParseError naming ``key``.

    With ``optional``, the object's keys are fixed: a key that is neither
    required nor optional is a ParseError too.
    """
    if not isinstance(value, kind):
        raise ParseError(f"{key} must be {_SHAPES[kind]}, got {value!r}")
    for name in required:
        if name not in value:
            raise ParseError(f"{key} is missing the {name!r} key")
    if optional is not None:
        for name in value:
            if name not in required and name not in optional:
                known = ", ".join(required + optional)
                raise ParseError(f"{key} has unknown key {name!r}; known keys: {known}")
    return value


def number(key: str, value, whole: bool = False):
    """``value`` as a float, or as an int when ``whole``; anything else names ``key`` in a ValidationError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if whole:
            if isinstance(value, int) or value.is_integer():
                return int(value)
        elif abs(value) <= sys.float_info.max:  # a JSON integer literal may exceed every float
            return float(value)
    kind = "a whole number" if whole else "a number"
    raise ValidationError(f"{key} must be {kind}, got {value!r}")


def numbers(value, key: str, whole: bool = False) -> Dict[str, float]:
    return {k: number(f"{key}.{k}", v, whole) for k, v in shaped(value, dict, key).items()}


def strings(value, key: str) -> List[str]:
    return [shaped(s, str, f"{key}[{i}]") for i, s in enumerate(shaped(value, list, key))]


def entries(data: dict, key: str, required: Keys, optional: Keys = ()):
    """``(key[i], entry)`` per object listed under the optional ``key``, holding every ``required`` key.

    An entry's keys are fixed: ``required`` and ``optional`` are all it may hold.
    """
    for i, entry in enumerate(shaped(data.get(key, []), list, key)):
        yield f"{key}[{i}]", shaped(entry, dict, f"{key}[{i}]", required, optional)


def within(key: str, parse, value):
    """``parse(value)``, with the key an input error names put under ``key``.

    Every error of these helpers, and of the constructors of loaded objects,
    starts with the key it is about (``vcpus must be ...``), so that a parser
    of one entry can name keys relative to it and report ``key.vcpus``.
    """
    try:
        return parse(value)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{key}.{exc}") from None
