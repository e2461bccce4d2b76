import json

import pytest

from sprachbund.errors import ValidationError
from sprachbund.registry import (LanguageRecord, Registry, bundled_lexical_table,
                                 bundled_registry, load_json,
                                 load_lexical_table, load_registry, read_json,
                                 save_registry, validate_feature_labels)


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
        save_registry(toy_registry, path)
        loaded = load_registry(path)
        assert loaded.to_json() == toy_registry.to_json()

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
        for a, b, sim in table.pairs():
            assert table.get(a, b) == table.get(b, a) == sim

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
