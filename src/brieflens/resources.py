"""The package's data files, and the one way it reads and replaces a file.

Input is strict UTF-8, less one leading byte-order mark; other bytes raise
the caller's error class as ``<file>: not valid UTF-8: <detail>``.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterable, Iterator, TextIO

__all__ = ["DATA_DIR", "decode_text", "default_lexicon_paths", "open_lines", "replace_file"]

DATA_DIR = Path(__file__).resolve().parent / "data"


def default_lexicon_paths() -> dict[str, Path]:
    """Shipped lexicon files keyed by kind: animals, products, countries."""
    return {
        "animals": DATA_DIR / "animals.csv",
        "products": DATA_DIR / "products.csv",
        "countries": DATA_DIR / "countries.csv",
    }


def decode_text(data: bytes, path: str | Path, error: type[Exception]) -> str:
    """The text of ``data``, the bytes of the file at ``path``."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8: {exc}") from exc


@contextmanager
def open_lines(source: str | Path | TextIO, error: type[Exception]) -> Iterator[Iterator[str]]:
    """The lines of a path or a text handle, endings kept, decoded as they are read."""
    named = not hasattr(source, "read")
    try:
        with open(source, encoding="utf-8", newline="") if named else nullcontext(source) as handle:
            first = handle.readline().removeprefix("\ufeff")
            yield itertools.chain((first,) if first else (), handle)
    except UnicodeDecodeError as exc:
        raise error(f"{source}: not valid UTF-8: {exc}") from exc


def replace_file(dest: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``dest`` only if every one of them is written.

    The text goes to ``<dest>.<pid>.tmp`` beside it, which then replaces
    ``dest``.  On any failure the temporary file is removed and ``dest``
    keeps its earlier bytes.
    """
    partial = Path(f"{dest}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        os.replace(partial, dest)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
