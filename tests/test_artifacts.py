"""The text-artifact primitives: one whole-file write, the directory commit and
the checked readers."""

import errno
import os

import pytest

from fedaudit.artifacts import commit, read_csv, read_json, write_text
from fedaudit.errors import ConfigError, IntegrityError


def _floats(rows):
    """A parse that checks each row in order: every field a number."""
    return [[float(v) for v in row] for row in rows]


def _read(path):
    return read_csv(str(path), "test", lambda header: header == ["a", "b"], _floats)


def test_write_text_keeps_line_ends_and_encodes_utf8(tmp_path):
    path = tmp_path / "f.txt"
    write_text(str(path), "a\r\nb\né\n")
    assert path.read_bytes() == b"a\r\nb\n\xc3\xa9\n"
    write_text(str(path), "x")  # the whole file, not an append
    assert path.read_bytes() == b"x"


def _tree(root):
    """Every file under ``root`` (relative path -> bytes) and every directory."""
    files, dirs = {}, []
    for top, subdirs, names in os.walk(root):
        dirs += [os.path.relpath(os.path.join(top, d), root) for d in subdirs]
        for name in names:
            with open(os.path.join(top, name), "rb") as fh:
                files[os.path.relpath(os.path.join(top, name), root)] = fh.read()
    return files, sorted(dirs)


def _dir_writer(name, text):
    """A commit entry that makes a directory holding the file ``name``."""
    def write(path):
        os.mkdir(path)
        write_text(os.path.join(path, name), text)
    return write


def _siblings(path):
    """The staging directories left next to ``path`` or inside it."""
    inside = os.listdir(path) if os.path.isdir(path) else []
    return [n for n in os.listdir(os.path.dirname(path)) + inside if ".partial-" in n]


def test_commit_makes_a_new_directory_whole(tmp_path):
    path = str(tmp_path / "runs" / "seed1")
    commit(path, {"trace": _dir_writer("a.npy", "A"), "t.csv": "x\r\ny\r\n"})
    assert _tree(path) == ({os.path.join("trace", "a.npy"): b"A", "t.csv": b"x\r\ny\r\n"},
                           ["trace"])
    assert _siblings(path) == []


def test_commit_into_an_existing_directory_replaces_only_its_entries(tmp_path):
    path = str(tmp_path / "run")
    commit(path, {"trace": _dir_writer("old.npy", "O"), "t.csv": "old", "keep.csv": "K"})
    commit(path, {"trace": _dir_writer("new.npy", "N"), "t.csv": "new"})
    assert _tree(path) == ({os.path.join("trace", "new.npy"): b"N", "t.csv": b"new",
                            "keep.csv": b"K"}, ["trace"])
    assert _siblings(path) == []


def test_commit_stages_an_existing_directory_inside_it(tmp_path):
    """So a commit into an existing ``path`` needs neither a writable parent nor
    one on the same filesystem (an ``--out`` that is a mount point, say)."""
    path = str(tmp_path / "out")
    given = []
    for _ in range(2):
        commit(path, {"trace": lambda p: (given.append(p), _dir_writer("a.npy", "A")(p))})
    assert [os.path.dirname(p) for p in given] == [
        f"{path}.partial-{os.getpid()}", os.path.join(path, f".partial-{os.getpid()}")]
    assert _tree(path) == ({os.path.join("trace", "a.npy"): b"A"}, ["trace"])
    assert _siblings(path) == []


@pytest.mark.parametrize("exc, text", [
    (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
     f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{{}}'"),
    # NumPy's short write in ``tofile`` has no errno.
    (OSError("13860 requested and 5104 written"), "13860 requested and 5104 written: '{}'"),
], ids=["errno", "short_write"])
@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
def test_commit_failing_writer_changes_nothing_and_names_the_final_path(
        tmp_path, exc, text, exists):
    path = str(tmp_path / "run")
    if exists:
        commit(path, {"t.csv": "old", "trace": _dir_writer("old.npy", "O")})
    before = _tree(path) if exists else None  # one old entry of each kind

    def fail(p):
        _dir_writer("half.npy", "H")(p)
        raise exc

    with pytest.raises(OSError) as info:
        commit(path, {"t.csv": "new", "trace": fail})
    final = os.path.join(path, "trace")
    assert str(info.value) == text.format(final)
    if exists:
        assert _tree(path) == before
    else:
        assert not os.path.exists(path)
    assert _siblings(path) == []


def test_commit_clears_a_stale_sibling_of_its_pid(tmp_path):
    path = str(tmp_path / "run")
    stale = f"{path}.partial-{os.getpid()}"
    os.makedirs(os.path.join(stale, "trace"))
    write_text(os.path.join(stale, "junk.csv"), "J")
    commit(path, {"t.csv": "T"})
    assert _tree(path) == ({"t.csv": b"T"}, [])
    assert _siblings(path) == []


def test_commit_under_a_regular_file_names_the_first_path_it_cannot_make(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for path, named in ((blocker / "out" / "runs" / "seed1", blocker / "out"),
                        (blocker / "out", blocker / "out")):
        with pytest.raises(NotADirectoryError) as info:
            commit(str(path), {"t.csv": "T"})
        assert info.value.filename == str(named)


def test_read_csv_returns_the_parse_of_the_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\r\n1,2\r\n3,4.5\r\n")
    assert _read(path) == [[1.0, 2.0], [3.0, 4.5]]
    path.write_bytes(b"a,b\n")
    assert _read(path) == []


@pytest.mark.parametrize("data, needle", [
    (b"", "bad header"),
    (b"a,c\n1,2\n", "bad header"),
    (b"a,b\n1,2\n3\n", "line 3: 1 fields, header has 2"),
    (b"a,b\n1,2\n1,2,3\n", "line 3: 3 fields, header has 2"),
    (b"a,b\n1,2\n3,4\n5,x\n6,7\n", "line 4: could not convert string to float: 'x'"),
    (b"a,b\n1,x\ny,2\n", "line 2: could not convert string to float: 'x'"),
    (b"a,b\n" + b"1,2\n" * 40 + b"3,\xff\n" + b"1,2\n" * 9, "line 42: "),
    (b'a,b\n"1,2\n3,x\n', "line 2: could not convert string to float: '\"1'"),
], ids=["empty", "header", "short_row", "long_row", "parse_error", "first_bad_row_wins",
        "not_utf8", "quote_is_a_character"])
def test_read_csv_error_names_path_and_line(tmp_path, data, needle):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(IntegrityError) as info:
        _read(path)
    assert str(info.value).startswith(f"corrupt test file {path}: {needle}"), info.value


def test_read_csv_missing_or_unreadable(tmp_path):
    with pytest.raises(IntegrityError, match="^missing run artifact: .*nope.csv$"):
        _read(tmp_path / "nope.csv")
    os.mkdir(tmp_path / "dir.csv")
    with pytest.raises(IntegrityError, match="^cannot read .*dir.csv: "):
        _read(tmp_path / "dir.csv")


@pytest.mark.parametrize("error", [ConfigError, IntegrityError])
def test_read_json_errors_name_the_path(tmp_path, error):
    path = tmp_path / "c.json"
    with pytest.raises(error, match=f"^cannot read {path}: "):
        read_json(str(path), error)
    path.write_bytes(b"{\xff}")
    with pytest.raises(error, match=f"^{path} is not valid JSON: "):
        read_json(str(path), error)
    path.write_text('{"a": [1, 2.5]}')
    assert read_json(str(path), error) == {"a": [1, 2.5]}
