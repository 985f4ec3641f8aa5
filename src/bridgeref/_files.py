"""Reading the UTF-8 text files the package takes as input."""
from __future__ import annotations

from pathlib import Path


def read_utf8(path: Path | str, error: type[ValueError]) -> str:
    """The text of a file; a file that is not UTF-8 raises ``error`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8: {exc}") from None
