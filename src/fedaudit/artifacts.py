"""Every JSON and CSV artifact is written by ``write_text`` and read back by
``read_json_artifact`` or ``read_csv``. Every directory the CLI writes reaches disk
through ``commit``, which puts a ``manifest.json`` in each directory it
stages, and every file the CLI reads back passes ``read_artifacts``, which
checks its bytes against that manifest. The trace arrays stay in ``fedsim``."""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil

from .errors import ConfigError, IntegrityError

MANIFEST = "manifest.json"


def write_text(path: str, text: str) -> bytes:
    """``text`` as the whole of the file ``path``: UTF-8, its line ends as given.
    Returns the bytes written."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def commit(path: str, files: dict) -> None:
    """Write the directory ``path`` from ``files``: entry name -> text, or a function
    that writes the directory at the path it is given. A new ``path`` is written as
    the sibling ``<path>.partial-<pid>`` and renamed into place, so it appears whole.
    Into an existing ``path`` the entries are written in ``<path>/.partial-<pid>``,
    so on its filesystem whatever its parent is, then each replaces its namesake in
    turn and the others stay. Each directory written gets a MANIFEST of its regular
    files: a text is hashed from the bytes written, and only the files under a
    function's directory are read back. Into an existing ``path`` it keeps the
    entries of the files that stay and replaces the directory's MANIFEST last, so a
    merge cut short reads as a mismatch. The staging directory never outlives the
    call, and an OSError names the entry's path under ``path``."""
    fresh = not os.path.exists(path)
    stage = (f"{os.path.normpath(path)}.partial-{os.getpid()}" if fresh
             else os.path.join(path, f".partial-{os.getpid()}"))
    shutil.rmtree(stage, ignore_errors=True)  # left by a killed process of this pid
    target = path
    try:
        os.makedirs(stage)
        listing = {}  # the top MANIFEST's entries
        for name, entry in files.items():
            target, staged = os.path.join(path, name), os.path.join(stage, name)
            if callable(entry):
                entry(staged)
                _write_manifests(staged)
            else:
                listing[name] = _entry(write_text(staged, entry))
        target = os.path.join(path, MANIFEST)
        if not fresh:
            with contextlib.suppress(IntegrityError):  # an entry it cannot vouch for is dropped
                listing.update({k: v for k, v in _manifest(path).items() if k not in files})
        _write_manifest(stage, listing)
        target = path
        if fresh:
            os.rename(stage, path)
            return
        for name in [*files, MANIFEST]:
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


def _write_manifests(top: str) -> None:
    """A MANIFEST in ``top`` and in every directory under it, listing its regular
    files as read back."""
    for directory, _, names in os.walk(top):
        listing = {}
        for name in names:
            with open(os.path.join(directory, name), "rb") as fh:
                listing[name] = _entry(fh.read())
        _write_manifest(directory, listing)


def _write_manifest(directory: str, listing: dict) -> None:
    """The MANIFEST of ``directory``: entry by file name, keys sorted, so the bytes
    depend on the files alone."""
    write_text(os.path.join(directory, MANIFEST),
               json.dumps({"files": listing}, indent=2, sort_keys=True) + "\n")


def _entry(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}


def _manifest(directory: str) -> dict:
    """File name -> entry of the MANIFEST in ``directory``; IntegrityError naming it
    if it is missing or does not parse."""
    path = os.path.join(directory, MANIFEST)
    try:
        with open(path, "rb") as fh:
            listing = json.loads(fh.read())["files"]
        if not isinstance(listing, dict):
            raise TypeError("files is not an object")
    except FileNotFoundError:
        raise IntegrityError(f"missing {path}: rerun to write it (a directory written "
                             "before fedaudit kept manifests has none)") from None
    except OSError as exc:
        raise IntegrityError(f"cannot read {path}: {exc.strerror}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"corrupt file {path}: {exc}") from None
    return listing


def read_artifacts(directory: str, names: list[str]) -> list[bytes]:
    """The bytes of each of ``names`` in ``directory``, the only way the CLI reads a
    file it wrote. Each is read once and must be the file the directory's MANIFEST
    lists, by sha256 and size; a missing MANIFEST or a file that is missing,
    unlisted or does not match raises IntegrityError naming it."""
    listing, manifest = _manifest(directory), os.path.join(directory, MANIFEST)
    out = []
    for name in names:
        path = os.path.join(directory, name)
        if name not in listing:
            raise IntegrityError(f"corrupt file {path}: not listed in {manifest}")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise IntegrityError(f"missing run artifact: {path}") from None
        except OSError as exc:
            raise IntegrityError(f"cannot read {path}: {exc.strerror}") from None
        if _entry(data) != listing[name]:
            raise IntegrityError(f"corrupt file {path}: its bytes do not match those listed "
                                 f"in {manifest}")
        out.append(data)
    return out


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


def read_json(path: str) -> object:
    """A config file's JSON. A file that cannot be read or parsed raises ConfigError
    naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


def read_json_artifact(path: str, parse):
    """``parse`` of the JSON of an artifact, read through ``read_artifacts``. A
    KeyError, OverflowError, TypeError or ValueError of parse raises IntegrityError
    naming the path."""
    obj = json.loads(read_artifacts(os.path.dirname(path), [os.path.basename(path)])[0])
    try:
        return parse(obj)
    except KeyError as exc:
        raise IntegrityError(f"corrupt file {path}: no key {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise IntegrityError(f"corrupt file {path}: {exc}") from None


def read_csv(path: str, what: str, header_ok, parse):
    """``parse(rows)`` of the rows after the header of a CSV artifact, read through
    ``read_artifacts``. A bad header, or a ValueError or OverflowError of parse,
    raises IntegrityError naming the path."""
    data = read_artifacts(os.path.dirname(path), [os.path.basename(path)])[0]
    table = list(csv.reader(io.StringIO(data.decode(), newline=""), quoting=csv.QUOTE_NONE))
    corrupt = f"corrupt {what} file {path}"
    if not table or not header_ok(table[0]):
        raise IntegrityError(f"{corrupt}: bad header")
    try:
        return parse(table[1:])
    except (OverflowError, ValueError) as exc:
        raise IntegrityError(f"{corrupt}: {exc}") from None
