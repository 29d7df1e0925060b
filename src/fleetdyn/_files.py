"""The package's one file reader and one file writer.

read_text reads an input file in one read and decodes it once, so that a
file that is not UTF-8 is refused as bad input, not met as a traceback.

write_text replaces a file's content in place. `open(path, "w")` truncates
an existing file to zero bytes on open, and on ext4 (default
`auto_da_alloc`) closing a file truncated that way starts its writeback,
which cost several times the formatting of a small CSV. Writing first and
truncating at the written length leaves the same bytes on the same inode
without that flush. Like `open`, it does not fsync.
"""

import os
import stat

from .errors import ParseError

_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def read_text(path) -> str:
    """The content of `path` decoded as UTF-8.

    Bytes that are not UTF-8 raise ParseError naming the file and the line
    of the first bad byte, counted in physical lines. Lines end at \\n, \\r
    or \\r\\n, as in universal newlines and the csv module.
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(data[:exc.start + 1].splitlines())
        raise ParseError(f"{path}: line {line}: not UTF-8 text, {exc.reason} "
                         f"at byte {exc.start}") from exc


def write_text(path, text: str) -> None:
    """Make `text`, UTF-8 encoded, the whole content of `path`.

    The file ends as `open(path, "w", newline="", encoding="utf-8")` would
    leave it, and an unusable path raises the same OSError. Only a regular
    file is truncated, so /dev/null and pipes work; if anything fails after
    the open, the file is left empty, never holding old bytes.
    """
    fd = os.open(path, _FLAGS, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            data = memoryview(text.encode("utf-8"))
            size = len(data)
            while data:
                data = data[os.write(fd, data):]
            if regular:
                os.ftruncate(fd, size)
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)
