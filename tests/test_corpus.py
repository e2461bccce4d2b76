import pytest

from sprachbund.corpus import (CorpusShard, SamplingPolicy, corpus_stats,
                               ingest_shard, sample)
from sprachbund.errors import ValidationError


def make_shard(n, language="aa"):
    return CorpusShard(language=language,
                       sentences=tuple((i, f"sentence {i}") for i in range(n)))


class TestIngest:
    def test_sequential_ids(self, tmp_path, toy_registry):
        path = tmp_path / "aa.txt"
        path.write_text("one\ntwo\nthree\n", encoding="utf-8")
        shard = ingest_shard(path, "aa", toy_registry)
        assert [i for i, _ in shard.sentences] == [0, 1, 2]
        assert [t for _, t in shard.sentences] == ["one", "two", "three"]

    def test_blank_lines_skipped(self, tmp_path, toy_registry):
        path = tmp_path / "aa.txt"
        path.write_text("one\n\ntwo\n   \nthree\n", encoding="utf-8")
        shard = ingest_shard(path, "aa", toy_registry)
        assert len(shard) == 3
        assert [i for i, _ in shard.sentences] == [0, 1, 2]

    def test_unregistered_language(self, tmp_path, toy_registry):
        path = tmp_path / "xx.txt"
        path.write_text("hello\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="'xx'"):
            ingest_shard(path, "xx", toy_registry)

    def test_invalid_utf8_reports_offset(self, tmp_path, toy_registry):
        path = tmp_path / "aa.txt"
        path.write_bytes(b"ok\n\xff\xfe bad\n")
        with pytest.raises(ValidationError, match="byte offset 3"):
            ingest_shard(path, "aa", toy_registry)

    def test_sampling_builds_only_the_kept_pairs(self, tmp_path,
                                                 toy_registry):
        lines = [f"line {i}" for i in range(500)]
        path = tmp_path / "aa.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        shard = ingest_shard(path, "aa", toy_registry)
        policy = SamplingPolicy(cap=7, seed=3)
        out = sample(shard, policy)
        assert len(shard) == 500 and "sentences" not in vars(shard)
        assert out == sample(CorpusShard("aa", tuple(enumerate(lines))),
                             policy)
        assert shard.sentences == tuple(enumerate(lines))  # on first read
        assert shard.sentences is shard.sentences
        assert shard == CorpusShard("aa", tuple(enumerate(lines)))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            CorpusShard(language="aa", sentences=((0, "x"), (0, "y")))

    def test_blank_sentence_rejected(self):
        with pytest.raises(ValidationError, match="blank"):
            CorpusShard(language="aa", sentences=((0, "   "),))


class TestSamplingPolicy:
    def test_cap_must_be_positive(self):
        with pytest.raises(ValidationError, match="cap"):
            SamplingPolicy(cap=0)

    def test_seed_range(self):
        with pytest.raises(ValidationError, match="seed"):
            SamplingPolicy(cap=1, seed=-1)
        SamplingPolicy(cap=1, seed=2 ** 64 - 1)


class TestSample:
    def test_under_cap_passthrough(self):
        shard = make_shard(100)
        assert sample(shard, SamplingPolicy(cap=200, seed=1)) == shard

    def test_exactly_at_cap_passthrough(self):
        shard = make_shard(50)
        assert sample(shard, SamplingPolicy(cap=50, seed=1)) == shard

    def test_deterministic(self):
        shard = make_shard(1000)
        policy = SamplingPolicy(cap=100, seed=42)
        assert sample(shard, policy) == sample(shard, policy)

    def test_different_seeds_differ(self):
        shard = make_shard(1000)
        a = sample(shard, SamplingPolicy(cap=100, seed=1))
        b = sample(shard, SamplingPolicy(cap=100, seed=2))
        assert a != b

    def test_languages_draw_independent_streams(self):
        a = sample(make_shard(1000, "aa"), SamplingPolicy(cap=100, seed=1))
        b = sample(make_shard(1000, "bb"), SamplingPolicy(cap=100, seed=1))
        assert [i for i, _ in a.sentences] != [i for i, _ in b.sentences]

    def test_size_is_min_of_n_and_cap(self):
        for n, cap in [(10, 3), (3, 10), (7, 7), (500, 100)]:
            shard = make_shard(n)
            out = sample(shard, SamplingPolicy(cap=cap, seed=5))
            assert len(out) == min(n, cap)

    def test_output_is_ordered_subsequence(self):
        shard = make_shard(500)
        out = sample(shard, SamplingPolicy(cap=60, seed=9))
        ids = [i for i, _ in out.sentences]
        assert ids == sorted(ids)
        assert set(out.sentences) <= set(shard.sentences)

    def test_idempotent(self):
        shard = make_shard(800)
        policy = SamplingPolicy(cap=90, seed=3)
        once = sample(shard, policy)
        assert sample(once, policy) == once


class TestCorpusStats:
    def test_counts_and_total(self):
        stats = corpus_stats([make_shard(5, "aa"), make_shard(7, "bb")])
        assert [r["sentences"] for r in stats["per_language"]] == [5, 7]
        assert stats["total"]["sentences"] == 12

    def test_empty_collection(self):
        stats = corpus_stats([])
        assert stats["per_language"] == []
        assert stats["total"] == {"sentences": 0, "bytes": 0}

    def test_bytes_not_chars(self):
        shard = CorpusShard(language="aa", sentences=((0, "héllo"),))
        stats = corpus_stats([shard])
        assert stats["per_language"][0]["bytes"] == len("héllo".encode("utf-8"))
        assert stats["per_language"][0]["bytes"] == 6
