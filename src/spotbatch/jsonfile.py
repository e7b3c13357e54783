"""Reading the package's JSON input files."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import ParseError


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
