"""Stores: JSONL files (an object per line, keys sorted, UTF-8), matrix, reports.

An appended store (a document's checkpoints, the recorded cache) grows a
line at a time, so a kill mid-append can leave a final line with no
newline: `read` leaves it out and `append` cuts it away first. Any other
file (manifest, documents, results, matrix.json, reports) is written whole
by `replacing`. `read` takes a store one line at a time, so a load holds
no more than one line beyond the records it returns. A line that holds no
valid record raises a `StoreCorrupt` subclass naming the file and line.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, TypeVar

from .errors import StoreCorrupt

T = TypeVar("T")


def _line(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def read(path: str | Path, from_json: Callable[[Any], T], *, appended: bool = False,
         error: type[StoreCorrupt] = StoreCorrupt) -> list[T]:
    """`from_json` of each non-blank line, read one line at a time; a missing
    appended store is empty.

    ValueError (bad UTF-8 or JSON), KeyError or TypeError from decoding a
    line or from `from_json` becomes `error`, naming the file and line.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        if appended:
            return []
        raise
    items = []
    with fh:
        for number, line in enumerate(fh, start=1):
            if appended and not line.endswith(b"\n"):
                break  # a torn final line
            try:
                text = line.decode("utf-8")
                if text.strip():
                    items.append(from_json(json.loads(text)))
            except (ValueError, KeyError, TypeError) as exc:
                raise error(f"{path}: line {number} is not a valid record: {exc!r}") from exc
    return items


def append(path: str | Path, *objs: Any) -> None:
    """Appends a line per object (none: only cuts a torn line), making the
    file and its directory if need be. When this returns they have reached
    the kernel, in one `write(2)` repeated only for the rest of a short one;
    they are not fsynced."""
    data = "".join(map(_line, objs)).encode("utf-8")
    try:
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        end = os.lseek(fd, 0, os.SEEK_END)
        if end and os.pread(fd, 1, end - 1) != b"\n":
            os.ftruncate(fd, os.pread(fd, end, 0).rfind(b"\n") + 1)
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)


@contextlib.contextmanager
def replacing(path: str | Path) -> Iterator[IO[bytes]]:
    """Yields a sibling temp file, renamed over `path` at the end, removed if the block raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write(path: str | Path, objs: Iterable[Any]) -> None:
    """Writes a line per object, as it is made, under `replacing`."""
    with replacing(path) as fh:
        fh.writelines(_line(obj).encode("utf-8") for obj in objs)
