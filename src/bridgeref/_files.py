"""Reading the UTF-8 text files the package takes as input, and their integers.

A file, or a byte range of it, is read and decoded in blocks of ``BLOCK``
bytes, and ``split_lines`` cuts text given in pieces into the lines
``str.splitlines`` gives for the whole.  A file that opens with a UTF-8
byte-order mark is refused, since its first line would not read as written.
"""
from __future__ import annotations

import codecs
from pathlib import Path
from typing import Iterable, Iterator

BLOCK = 1 << 16

# Every character ``str.splitlines`` ends a line at but "\r", which may be
# the first half of "\r\n".
_ENDS = "\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def utf8_blocks(path: Path | str, start: int = 0, end: int | None = None) -> Iterator[str]:
    """The text of a file, or of its bytes ``start`` to ``end``, decoded block by block.

    The file is closed however reading ends.  Bytes that are not UTF-8, and
    a byte-order mark opening the file, raise ``ValueError`` naming their
    offset in the file; the caller names the file.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    at = start                                  # the file offset read up to
    with open(path, "rb") as file:
        if start:                               # a pipe cannot seek, even to 0
            file.seek(start)
        while True:
            block = file.read(BLOCK if end is None else min(BLOCK, end - at))
            if at == 0 and block.startswith(codecs.BOM_UTF8):
                raise ValueError("starts with a UTF-8 byte-order mark (bytes ef bb bf); "
                                 "save the file without it")
            at += len(block)
            try:
                text = decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                # The decoder read the bytes it held back, then the block.
                offset = at - len(exc.object) + exc.start
                raise ValueError(f"not valid UTF-8: byte 0x{exc.object[exc.start]:02x} "
                                 f"at offset {offset}: {exc.reason}") from None
            if not block:
                return
            yield text


def read_utf8(path: Path | str, error: type[ValueError]) -> str:
    """The text of a file; a file that is not UTF-8 raises ``error`` naming it."""
    try:
        return "".join(utf8_blocks(path))
    except ValueError as exc:
        raise error(f"{path}: {exc}") from None


def split_lines(pieces: Iterable[str]) -> Iterator[str]:
    """The lines of the text the pieces make up, as ``str.splitlines`` gives them.

    Pieces may be cut anywhere, inside a line or between "\\r" and "\\n".
    """
    rest = ""                                   # the start of a line not yet ended
    for piece in pieces:
        text = rest + piece
        lines = text.splitlines()
        rest = ""
        if text and text[-1] not in _ENDS:
            rest = lines.pop() + ("\r" if text[-1] == "\r" else "")
        yield from lines
    yield from rest.splitlines()


def integer(text: str) -> int:
    """The integer an optional '-' then ASCII digits spell; anything else is a ValueError.

    The unsigned case is ``is_digits`` written out: a corpus record reads two.
    """
    if text.isdigit() and text.isascii() or text[:1] == "-" and is_digits(text[1:]):
        return int(text)
    raise ValueError(f"not an integer: {text!r}")


def is_digits(text: str) -> bool:
    """Whether ``text`` is one or more ASCII digits."""
    return text.isdigit() and text.isascii()
