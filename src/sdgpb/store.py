"""Stores: JSONL files (an object per line, keys sorted, UTF-8), matrix, reports.

An appended store (a document's checkpoints, the recorded cache) grows a
line at a time, so a kill mid-append can leave a final line with no
newline. An appended store is read before it is appended to: `Appended.read`
leaves a torn final line out, and the first `append` through the same
descriptor cuts it away. Any other file (manifest, documents, results,
matrix.json, reports) is written whole by `replacing`.
`read` takes a store one line at a time, so a load holds no more than one
line beyond the records it returns. A line that holds no valid record
raises a `StoreCorrupt` subclass naming the file and line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, TypeVar

from .errors import StoreCorrupt

T = TypeVar("T")

# one encoder for every stored line: json.dumps with a keyword builds a new one per call
_ENCODER = json.JSONEncoder(sort_keys=True)

_APPENDING = os.O_RDWR | os.O_APPEND


def _line(obj: Any) -> str:
    return _ENCODER.encode(obj) + "\n"


def _records(path: str | Path, lines: Iterable[bytes], from_json: Callable[[Any], T],
             appended: bool, error: type[StoreCorrupt]) -> list[T]:
    """`from_json` of each non-blank line, up to a torn final line of an
    appended store. ValueError (bad UTF-8 or JSON), KeyError or TypeError
    from decoding a line or from `from_json` becomes `error`, naming the
    file and line."""
    items = []
    for number, line in enumerate(lines, start=1):
        if appended and not line.endswith(b"\n"):
            break  # a torn final line
        try:
            text = line.decode("utf-8")
            if text.strip():
                items.append(from_json(json.loads(text)))
        except (ValueError, KeyError, TypeError) as exc:
            raise error(f"{path}: line {number} is not a valid record: {exc!r}") from exc
    return items


def read(path: str | Path, from_json: Callable[[Any], T], *, appended: bool = False,
         error: type[StoreCorrupt] = StoreCorrupt) -> list[T]:
    """`from_json` of each non-blank line, read one line at a time; a missing
    appended store is empty."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        if appended:
            return []
        raise
    with fh:
        return _records(path, fh, from_json, appended, error)


class Appended:
    """An appended store, read before it is appended to.

    `read` opens the file without making it and reads it whole in one read,
    leaving a torn final line out; each `append` writes through the same
    descriptor, the first one cutting that line away and the first one with
    a line to write making the file (and its directory) if it was missing.
    An `append` after `close` opens the file again. Not for two threads at
    once.
    """

    def __init__(self, path: str | Path):
        self.path = path
        self._fd: int | None = None
        self._keep: int | None = None  # the length a torn file is cut to by the next append

    def read(self, from_json: Callable[[Any], T], error: type[StoreCorrupt] = StoreCorrupt) -> list[T]:
        """`from_json` of each whole non-blank line; a missing file is empty."""
        try:
            self._fd = os.open(self.path, _APPENDING)
        except FileNotFoundError:
            return []
        size = os.fstat(self._fd).st_size
        data = b""
        while len(data) < size:
            chunk = os.read(self._fd, size - len(data))
            if not chunk:
                break
            data += chunk
        if data and not data.endswith(b"\n"):
            self._keep = data.rfind(b"\n") + 1
        return _records(self.path, io.BytesIO(data), from_json, True, error)

    def append(self, *objs: Any) -> None:
        """Cuts away a torn line `read` left out, then appends a line per
        object; with none and nothing to cut, does nothing. When this returns
        the lines have reached the kernel, in one `write(2)` repeated only for
        the rest of a short one; they are not fsynced."""
        if self._keep is not None:
            os.ftruncate(self._fd, self._keep)
            self._keep = None
        if not objs:
            return
        data = "".join(map(_line, objs)).encode("utf-8")
        fd = self._fd
        if fd is None:
            try:
                fd = os.open(self.path, _APPENDING | os.O_CREAT, 0o666)
            except FileNotFoundError:
                Path(self.path).parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path, _APPENDING | os.O_CREAT, 0o666)
            self._fd = fd
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


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
