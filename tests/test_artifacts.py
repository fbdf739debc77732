"""The text-artifact primitives: one whole-file write and the checked readers."""

import os

import pytest

from fedaudit.artifacts import read_csv, read_json, write_text
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
