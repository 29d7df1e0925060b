"""The package's one file writer: replace a file's content in place.

`open(path, "w")` truncates an existing file to zero bytes on open, and on
ext4 (default `auto_da_alloc`) closing a file truncated that way starts its
writeback, which cost several times the formatting of a small CSV. Writing
first and truncating at the written length leaves the same bytes on the
same inode without that flush. Like `open`, it does not fsync.
"""

import os
import stat

_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


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
