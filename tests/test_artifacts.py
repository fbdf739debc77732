"""The text-artifact primitives: one whole-file write, the directory commit with
its manifests, the one checked door and the readers built on it."""

import errno
import hashlib
import json
import os
import pathlib

import pytest

from fedaudit import artifacts
from fedaudit.artifacts import (MANIFEST, commit, read_artifacts, read_csv, read_json,
                                read_json_artifact, write_text)
from fedaudit.errors import ConfigError, IntegrityError


def _floats(rows):
    """A parse that checks each row in order: every field a number."""
    return [[float(v) for v in row] for row in rows]


def _read(path):
    return read_csv(str(path), "test", lambda header: header == ["a", "b"], _floats)


def _committed(tmp_path, text, name="t.csv"):
    """The path of a file ``commit`` wrote with ``text``."""
    commit(str(tmp_path / "d"), {name: text})
    return tmp_path / "d" / name


def test_write_text_keeps_line_ends_and_encodes_utf8(tmp_path):
    path = tmp_path / "f.txt"
    write_text(str(path), "a\r\nb\né\n")
    assert path.read_bytes() == b"a\r\nb\n\xc3\xa9\n"
    write_text(str(path), "x")  # the whole file, not an append
    assert path.read_bytes() == b"x"


def _tree(root):
    """Every file under ``root`` but the manifests (relative path -> bytes) and
    every directory."""
    files, dirs = {}, []
    for top, subdirs, names in os.walk(root):
        dirs += [os.path.relpath(os.path.join(top, d), root) for d in subdirs]
        for name in set(names) - {MANIFEST}:
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
    assert _read(_committed(tmp_path, "a,b\r\n1,2\r\n3,4.5\r\n")) == [[1.0, 2.0], [3.0, 4.5]]
    assert _read(_committed(tmp_path, "a,b\n")) == []


@pytest.mark.parametrize("data, needle", [
    ("", "bad header"),
    ("a,c\n1,2\n", "bad header"),
    ("a,b\n1,2\n3,4\n5,x\n6,7\n", "could not convert string to float: 'x'"),
    ("a,b\n1,x\ny,2\n", "could not convert string to float: 'x'"),
    ('a,b\n"1,2\n3,x\n', "could not convert string to float: '\"1'"),
], ids=["empty", "header", "parse_error", "first_bad_row_wins", "quote_is_a_character"])
def test_read_csv_error_names_path(tmp_path, data, needle):
    path = _committed(tmp_path, data)
    with pytest.raises(IntegrityError) as info:
        _read(path)
    assert str(info.value) == f"corrupt test file {path}: {needle}", info.value


def test_read_csv_missing_or_unreadable(tmp_path):
    commit(str(tmp_path / "d"), {"nope.csv": "a,b\n", "dir.csv": "a,b\n"})
    os.remove(tmp_path / "d" / "nope.csv")
    os.remove(tmp_path / "d" / "dir.csv")
    os.mkdir(tmp_path / "d" / "dir.csv")
    with pytest.raises(IntegrityError, match="^missing run artifact: .*nope.csv$"):
        _read(tmp_path / "d" / "nope.csv")
    with pytest.raises(IntegrityError, match="^cannot read .*dir.csv: "):
        _read(tmp_path / "d" / "dir.csv")


def _listing(directory):
    with open(os.path.join(directory, MANIFEST), encoding="utf-8") as fh:
        return json.load(fh)["files"]


def _entry(data):
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}


def test_commit_lists_each_directory_s_regular_files_in_its_manifest(tmp_path):
    """The manifest's bytes depend on the files alone: keys sorted, no time, no pid."""
    path = str(tmp_path / "run")
    commit(path, {"trace": _dir_writer("a.npy", "A"), "t.csv": "x\r\ny\r\n", "b.json": "{}"})
    assert _listing(path) == {"t.csv": _entry(b"x\r\ny\r\n"), "b.json": _entry(b"{}")}
    assert _listing(os.path.join(path, "trace")) == {"a.npy": _entry(b"A")}
    with open(os.path.join(path, MANIFEST), "rb") as fh:
        text = fh.read().decode()
    assert text == json.dumps({"files": _listing(path)}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fresh", [True, False], ids=["new_dir", "merge"])
def test_commit_lists_the_bytes_on_disk_of_each_text(tmp_path, fresh):
    """A text's entry is hashed from the bytes written, not read back: it must be the
    file on disk, CRLF line ends and multi-byte UTF-8 characters included."""
    path = str(tmp_path / "run")
    if not fresh:
        commit(path, {"crlf.csv": "old\n"})
    texts = {"crlf.csv": "a,b\r\n1,2\r\n", "utf8.json": '{"\u00e9": "\u00fc\u20ac\U0001f600"}\n'}
    commit(path, {"trace": _dir_writer("a.npy", "\u00e9\r\n"), **texts})
    for directory, names in ((path, texts), (os.path.join(path, "trace"), ["a.npy"])):
        listing = _listing(directory)
        for name in names:
            on_disk = pathlib.Path(directory, name).read_bytes()
            assert listing[name] == _entry(on_disk), name
        assert read_artifacts(directory, list(names)) == [
            pathlib.Path(directory, n).read_bytes() for n in names]
    for name, text in texts.items():
        assert pathlib.Path(path, name).read_bytes() == text.encode("utf-8")
    assert _listing(path)["crlf.csv"]["size"] == 10
    assert _listing(path)["utf8.json"]["size"] == 20  # 9 ASCII bytes; 2, 2, 3 and 4 bytes


def test_commit_merges_the_manifest_of_an_existing_directory(tmp_path):
    path = str(tmp_path / "run")
    commit(path, {"trace": _dir_writer("old.npy", "O"), "t.csv": "old", "keep.csv": "K"})
    commit(path, {"trace": _dir_writer("new.npy", "N"), "t.csv": "new", "add.csv": "A"})
    assert _listing(path) == {"t.csv": _entry(b"new"), "keep.csv": _entry(b"K"),
                              "add.csv": _entry(b"A")}
    assert _listing(os.path.join(path, "trace")) == {"new.npy": _entry(b"N")}
    assert read_artifacts(path, ["keep.csv", "t.csv"]) == [b"K", b"new"]


def test_a_merge_cut_short_before_its_manifest_reads_as_a_mismatch(tmp_path, monkeypatch):
    path = str(tmp_path / "run")
    commit(path, {"t.csv": "old", "keep.csv": "K"})
    replace = os.replace

    def fail_on_the_manifest(src, dst):
        if os.path.basename(dst) == MANIFEST:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src)
        replace(src, dst)

    monkeypatch.setattr(artifacts.os, "replace", fail_on_the_manifest)
    with pytest.raises(OSError):
        commit(path, {"t.csv": "new"})
    with pytest.raises(IntegrityError, match=f"^corrupt file {path}/t.csv: its bytes do not "
                                             f"match those listed in {path}/{MANIFEST}$"):
        read_artifacts(path, ["t.csv"])
    assert read_artifacts(path, ["keep.csv"]) == [b"K"]


@pytest.mark.parametrize("edit, needle", [
    (lambda d: os.remove(os.path.join(d, MANIFEST)),
     "missing {d}/manifest.json: rerun to write it (a directory written before fedaudit "
     "kept manifests has none)"),
    (lambda d: write_text(os.path.join(d, MANIFEST), "[]"), "corrupt file {d}/manifest.json: "),
    (lambda d: write_text(os.path.join(d, MANIFEST), '{"files": []}'),
     "corrupt file {d}/manifest.json: files is not an object"),
    (lambda d: os.remove(os.path.join(d, "t.csv")), "missing run artifact: {d}/t.csv"),
    (lambda d: write_text(os.path.join(d, "t.csv"), "a,c\n"),
     "corrupt file {d}/t.csv: its bytes do not match those listed in {d}/manifest.json"),
    (lambda d: write_text(os.path.join(d, "t.csv"), "a,b\n\n"),
     "corrupt file {d}/t.csv: its bytes do not match those listed in {d}/manifest.json"),
    (lambda d: write_text(os.path.join(d, "u.csv"), "a,b\n"),
     "corrupt file {d}/u.csv: not listed in {d}/manifest.json"),
], ids=["no_manifest", "manifest_a_list", "files_a_list", "file_missing", "file_edited",
        "file_grown", "file_unlisted"])
def test_read_artifacts_exits_3_naming_the_file(tmp_path, edit, needle):
    d = str(tmp_path / "d")
    commit(d, {"t.csv": "a,b\n"})
    edit(d)
    with pytest.raises(IntegrityError) as info:
        read_artifacts(d, ["t.csv", "u.csv"])  # u.csv exists only where the edit made it
    assert str(info.value).startswith(needle.format(d=d)), info.value


def test_read_json_errors_name_the_path(tmp_path):
    path = tmp_path / "c.json"
    with pytest.raises(ConfigError, match=f"^cannot read {path}: "):
        read_json(str(path))
    path.write_bytes(b"{\xff}")
    with pytest.raises(ConfigError, match=f"^{path} is not valid JSON: "):
        read_json(str(path))
    path.write_text('{"a": [1, 2.5]}')
    assert read_json(str(path)) == {"a": [1, 2.5]}


def test_read_json_artifact_reads_through_the_manifest(tmp_path):
    path = _committed(tmp_path, '{"a": [1, 2.5]}', "c.json")
    assert read_json_artifact(str(path), lambda obj: obj["a"]) == [1, 2.5]
    with pytest.raises(IntegrityError, match=f"^corrupt file {path}: no key 'b'$"):
        read_json_artifact(str(path), lambda obj: obj["b"])
    path.write_text('{"a": [1, 2.6]}')
    with pytest.raises(IntegrityError, match=f"^corrupt file {path}: its bytes do not match"):
        read_json_artifact(str(path), lambda obj: obj)
