import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference import dump_write_json
from sprachbund import data
from sprachbund.errors import ValidationError
from sprachbund.registry import (LanguageRecord, Registry, bundled_lexical_table,
                                 bundled_registry, load_json,
                                 load_lexical_table, load_registry, read_json,
                                 replacing, validate_feature_labels,
                                 write_json)


def _doc_id(doc):
    """repr without memory addresses, so a case keeps its name across runs."""
    return re.sub(r" at 0x[0-9a-f]+", "", repr(doc))


class TestBundledRegistry:
    def test_size_and_families(self):
        reg = bundled_registry()
        assert len(reg) == 108
        assert len(reg.families) == 22

    def test_known_family_lookups(self):
        reg = bundled_registry()
        assert reg.get("sw").family == "Niger-Congo"
        assert reg.get("ja").family == "Japonic"

    def test_long_codes_accepted_verbatim(self):
        reg = bundled_registry()
        for code in ("als", "arz", "ckb", "nds", "scn", "sco", "war", "wuu"):
            assert code in reg


class TestLanguageRecord:
    def test_uppercase_code_rejected(self):
        with pytest.raises(ValidationError, match="EN"):
            LanguageRecord("EN")

    @pytest.mark.parametrize("code", ["e", "abcde", "e1", " värt", ""])
    def test_bad_codes_rejected(self, code):
        with pytest.raises(ValidationError):
            LanguageRecord(code)

    def test_duplicate_codes_rejected(self):
        with pytest.raises(ValidationError, match="duplicate.*'en'"):
            Registry([LanguageRecord("en"), LanguageRecord("en")])


class TestRegistryFiles:
    def test_round_trip(self, tmp_path, toy_registry):
        path = tmp_path / "registry.json"
        write_json(path, {"v": 1, "languages": [
            {"code": r.code, "family": r.family, "syntax": dict(r.syntax)}
            for r in toy_registry]})
        loaded = load_registry(path)
        assert list(loaded) == list(toy_registry)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"v": 1,\n "languages": [}', encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            load_registry(path)

    def test_duplicate_code_in_file(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "v": 1,
            "languages": [{"code": "en", "family": None, "syntax": {}},
                          {"code": "en", "family": None, "syntax": {}}],
        }), encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate.*'en'"):
            load_registry(path)

    def test_schema_version_required(self, tmp_path):
        path = tmp_path / "nover.json"
        path.write_text('{"languages": []}', encoding="utf-8")
        with pytest.raises(ValidationError, match="version"):
            load_registry(path)


class TestReadJson:
    """Every way of failing to read a JSON object is bad data naming the file."""

    @pytest.mark.parametrize("content, message", [
        (None, "not found"),
        (b'{"v": 1, "name": "caf\xe9"}', "invalid UTF-8 at byte offset 21"),
        (b'{"v": 1,\n "x": }', "line 2, column 7: Expecting value"),
        (b"[1, 2]", "expected a JSON object, got list"),
        (b"5", "expected a JSON object, got int"),
    ])
    def test_failures_name_the_path(self, tmp_path, content, message):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ValidationError) as excinfo:
            read_json(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_directory_cannot_be_read(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read") as excinfo:
            read_json(tmp_path)
        assert str(tmp_path) in str(excinfo.value)

    def test_object_without_version_is_read_but_not_loaded(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"out": "ws"}', encoding="utf-8")
        assert read_json(path) == {"out": "ws"}
        with pytest.raises(ValidationError, match="version"):
            load_json(path)


class TestAtomicWrite:
    """A write that does not finish leaves the previous file as it was."""

    def test_failed_encode_keeps_previous_bytes(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"a": [1.0, 2.0]})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"a": [1.0, object()]})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_interrupt_inside_binary_write_keeps_previous_bytes(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"old")
        with pytest.raises(KeyboardInterrupt):
            with replacing(path, "wb") as fh:
                fh.write(b"new but unfinished")
                raise KeyboardInterrupt
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_killed_writer_keeps_previous_bytes(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"a": 1})
        before = path.read_bytes()
        code = ("import os, sys\n"
                "from sprachbund.registry import replacing\n"
                "with replacing(sys.argv[1]) as fh:\n"
                "    fh.write('{\"a\": [')\n"
                "    fh.flush()\n"
                "    os._exit(9)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(path)],
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                  sys.path)}, timeout=60)
        assert proc.returncode == 9
        assert path.read_bytes() == before

    def test_new_file_has_the_permissions_of_a_plain_open(self, tmp_path):
        write_json(tmp_path / "doc.json", {"a": 1})
        (tmp_path / "plain.json").write_text("{}")
        assert (tmp_path / "doc.json").stat().st_mode == \
            (tmp_path / "plain.json").stat().st_mode


class TestLabels:
    def test_family_and_syntax_labels(self, toy_registry):
        codes = ["cc", "aa", "ee", "dd"]
        assert toy_registry.labels(codes, "family") == {
            "cc": "Beta", "aa": "Alpha", "ee": None, "dd": "Beta"}
        assert toy_registry.labels(codes, "word_order") == {
            "cc": "SOV", "aa": "SVO", "ee": None, "dd": None}
        assert list(toy_registry.labels(codes, "family")) == codes

    def test_unregistered_code_rejected(self, toy_registry):
        with pytest.raises(ValidationError, match="'zz'"):
            toy_registry.labels(["aa", "zz"], "family")


class TestLexicalTable:
    def test_bundled_pairs(self):
        table = bundled_lexical_table()
        assert len(table) == 15
        assert table.get("ca", "es") == 0.85
        assert table.get("en", "es") is None

    def test_lookup_is_order_insensitive(self):
        table = bundled_lexical_table()
        doc = read_json(data.path("lexical_similarity.json"))
        assert len(doc["pairs"]) == len(table)
        for pair in doc["pairs"]:
            a, b = pair["a"], pair["b"]
            assert table.get(a, b) == table.get(b, a) == pair["sim"]

    def test_asymmetric_entries_rejected(self, tmp_path):
        path = tmp_path / "asym.json"
        path.write_text(json.dumps({
            "v": 1,
            "pairs": [{"a": "aa", "b": "bb", "sim": 0.5},
                      {"a": "bb", "b": "aa", "sim": 0.6}],
        }), encoding="utf-8")
        with pytest.raises(ValidationError, match="asymmetric"):
            load_lexical_table(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "range.json"
        path.write_text(json.dumps({
            "v": 1, "pairs": [{"a": "aa", "b": "bb", "sim": 1.5}],
        }), encoding="utf-8")
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            load_lexical_table(path)

    def test_self_pair_must_be_one(self, tmp_path):
        path = tmp_path / "self.json"
        path.write_text(json.dumps({
            "v": 1, "pairs": [{"a": "aa", "b": "aa", "sim": 0.9}],
        }), encoding="utf-8")
        with pytest.raises(ValidationError, match="self-pair"):
            load_lexical_table(path)


class TestFeatureLabels:
    def test_all_present_is_empty(self):
        records = [
            LanguageRecord("aa", syntax={"word_order": "SVO",
                                         "adjective_position": "AN",
                                         "adposition_position": "prep"}),
        ]
        assert validate_feature_labels(records) == {}

    def test_missing_feature_is_named(self, toy_registry):
        report = validate_feature_labels(toy_registry)
        assert "dd" in report["word_order"]
        assert "ee" in report["word_order"]
        assert "bb" in report["adjective_position"]

    def test_empty_registry_is_empty_report(self):
        assert validate_feature_labels([]) == {}


def _as_lists(value):
    """``value`` with every NumPy array replaced by its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value


def _written(writer, path, doc):
    """The bytes ``writer`` leaves at ``path``, or the error it raises."""
    path.unlink(missing_ok=True)
    try:
        writer(path, doc)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return path.read_bytes()


_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e16])
_SCALARS = (st.none() | st.booleans() | _FLOATS | st.text()
            | st.integers() | st.integers(-10 ** 40, 10 ** 40))
_KEYS = st.text() | st.sampled_from(["", "v", "é", " ", "a\"b\\c"])


def _symmetric(m, seed, zeros):
    """A symmetric float64 matrix; ``zeros`` puts 0.0 on one side of the
    diagonal and -0.0 on the other, so it is symmetric by value only."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    a = a + a.T
    if zeros and m > 1:
        a[0, 1], a[1, 0] = 0.0, -0.0
    return a


_ARRAYS = (st.builds(_symmetric, st.integers(0, 9), st.integers(0, 99),
                     st.booleans())
           | st.builds(lambda m, seed: np.random.default_rng(seed)
                       .standard_normal((m, m + 1)),
                       st.integers(0, 5), st.integers(0, 99))
           | st.sampled_from([np.array([[1.0, np.nan], [np.nan, 1.0]]),
                              np.array([[np.inf, 2.0], [2.0, -np.inf]]),
                              np.arange(6).reshape(2, 3),
                              np.array([True, False]), np.zeros(0),
                              np.array(2.5)]))
_VALUES = st.recursive(
    _SCALARS | _ARRAYS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=5)
                   | st.dictionaries(st.integers() | st.floats(), inner,
                                     max_size=3)
                   | st.dictionaries(st.booleans() | st.none(), inner,
                                     max_size=2)),
    max_leaves=30)


class TestWriteJsonOracle:
    """``write_json`` writes the bytes of ``json.dump`` with its settings
    (``dump_write_json`` in reference.py), on any document, arrays
    written as their ``tolist()``, or fails as ``json.dump`` fails."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=st.dictionaries(_KEYS, _VALUES, max_size=6))
    @example(doc={"values": _symmetric(4, 1, True), "v": 1})
    @example(doc={"m": [[0.0, -0.0], [0.0, 1.0]], "e": [[], {}, ()]})
    @example(doc={"mixed": [math.nan, math.inf, -math.inf, -0.0, 5e-324, []],
                  "n": {"x": math.nan, "y": [True]},
                  "k": {math.nan: [None], 10 ** 30: {}},
                  "f": {-math.inf: [0], 0.5: [1]}})
    def test_bytes_are_json_dumps(self, tmp_path, doc):
        got = _written(write_json, tmp_path / "got.json", doc)
        want = _written(dump_write_json, tmp_path / "want.json",
                        _as_lists(doc))
        assert got == want

    def test_mirrored_zeros_keep_their_signs(self, tmp_path):
        values = np.eye(3)
        values[0, 2], values[2, 0] = 0.0, -0.0
        write_json(tmp_path / "m.json", {"values": values})
        assert json.loads((tmp_path / "m.json").read_text())["values"] == (
            values.tolist())
        text = (tmp_path / "m.json").read_text()
        assert text.count("-0.0") == 1

    @pytest.mark.parametrize("doc", [
        {"a": object()}, {(1, 2): 1}, {1: 1, "a": 2}, {"a": [1, {2: set()}]},
        {"a": np.float32(1.0)}], ids=_doc_id)
    def test_errors_are_json_dumps(self, tmp_path, doc):
        got = _written(write_json, tmp_path / "got.json", doc)
        assert got == _written(dump_write_json, tmp_path / "want.json", doc)
        assert isinstance(got, str) and not (tmp_path / "got.json").exists()

    def test_circular_container_is_refused(self, tmp_path):
        loop: list = [1]
        loop.append(loop)
        doc = {"a": loop}
        assert _written(write_json, tmp_path / "got.json", doc) == (
            "ValueError: Circular reference detected")
        assert _written(dump_write_json, tmp_path / "want.json", doc) == (
            "ValueError: Circular reference detected")
