"""Every JSON and CSV artifact is written by ``write_text`` and read back by
``read_json`` or ``read_csv``, whose errors name the path and, in a CSV file,
the line. Every directory the CLI writes reaches disk through ``commit``.
The trace arrays stay in ``fedsim``."""

import contextlib
import csv
import json
import os
import shutil

from .errors import ConfigError, FedAuditError, IntegrityError


def write_text(path: str, text: str) -> None:
    """``text`` as the whole of the file ``path``: UTF-8, its line ends as given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def commit(path: str, files: dict) -> None:
    """Write the directory ``path`` from ``files``: entry name -> text, or a function
    that writes the path it is given. A new ``path`` is written as the sibling
    ``<path>.partial-<pid>`` and renamed into place, so it appears whole. Into an
    existing ``path`` the entries are written in ``<path>/.partial-<pid>``, so on
    its filesystem whatever its parent is, then each replaces its namesake in turn
    and the others stay: a merge cut short may mix old and new entries, each whole.
    The staging directory never outlives the call, and an OSError names the
    entry's path under ``path``."""
    fresh = not os.path.exists(path)
    stage = (f"{os.path.normpath(path)}.partial-{os.getpid()}" if fresh
             else os.path.join(path, f".partial-{os.getpid()}"))
    shutil.rmtree(stage, ignore_errors=True)  # left by a killed process of this pid
    target = path
    try:
        os.makedirs(stage)
        for name, entry in files.items():
            target = os.path.join(path, name)
            if callable(entry):
                entry(os.path.join(stage, name))
            else:
                write_text(os.path.join(stage, name), entry)
        target = path
        if fresh:
            os.rename(stage, path)
            return
        for name in files:
            target = os.path.join(path, name)
            if os.path.isdir(target):  # moved aside, removed with the stage
                os.rename(target, os.path.join(stage, f".old-{name}"))
            os.replace(os.path.join(stage, name), target)
    except OSError as exc:
        if exc.filename is not None and not str(exc.filename).startswith(stage):
            raise  # an ancestor of path: a regular file, say
        raise (OSError(exc.errno, exc.strerror, target) if exc.errno is not None
               else OSError(f"{exc}: {target!r}")) from exc  # NumPy's short write
    finally:
        shutil.rmtree(stage, ignore_errors=True)


@contextlib.contextmanager
def removing_new_dirs_on_error(*paths: str):
    """If the body raises, remove each directory it made for ``paths`` and left empty."""
    made = set()
    for path in map(os.path.abspath, paths):
        while not os.path.exists(path):
            made.add(path)
            path = os.path.dirname(path)
    try:
        yield
    except BaseException:
        for d in sorted(made, reverse=True):  # a child sorts after its parent
            with contextlib.suppress(OSError):
                os.rmdir(d)
        raise


def read_json(path: str, error: type[FedAuditError] = ConfigError, parse=None) -> object:
    """A JSON file, through ``parse`` if given. A file that cannot be read or parsed
    raises ``error`` naming the path (ConfigError for a config, IntegrityError for an
    artifact), and so does a KeyError, OverflowError, TypeError or ValueError of parse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None
    try:
        return obj if parse is None else parse(obj)
    except KeyError as exc:
        raise error(f"corrupt file {path}: no key {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise error(f"corrupt file {path}: {exc}") from None


def read_csv(path: str, what: str, header_ok, parse):
    """``parse(rows)`` of the rows after the header of a CSV file, each as wide as it.

    ``parse`` converts all rows in one pass and raises ValueError (or
    OverflowError, for an integer too large for int64) on a bad one.
    It must accept every prefix of good rows, so the shortest prefix it rejects
    gives the line of its error. Every fault raises IntegrityError naming the
    path (and the line); a byte that is not UTF-8 reads as a lone surrogate,
    which no number parser accepts."""
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            table = list(csv.reader(fh, quoting=csv.QUOTE_NONE))  # one row per line
    except FileNotFoundError:
        raise IntegrityError(f"missing run artifact: {path}") from None
    except OSError as exc:
        raise IntegrityError(f"cannot read {path}: {exc.strerror}") from None
    corrupt = f"corrupt {what} file {path}"
    if not table or not header_ok(table[0]):
        raise IntegrityError(f"{corrupt}: bad header")
    rows, width = table[1:], len(table[0])
    for line, row in enumerate(rows, 2):
        if len(row) != width:
            raise IntegrityError(f"{corrupt}: line {line}: {len(row)} fields, header has {width}")
    try:
        return parse(rows)
    except (OverflowError, ValueError) as exc:
        error, good, bad = exc, 0, len(rows)  # parse takes rows[:good], rejects rows[:bad]
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                parse(rows[:mid])
                good = mid
            except (OverflowError, ValueError) as e:
                error, bad = e, mid
        raise IntegrityError(f"{corrupt}: line {bad + 1}: {error}") from None
