"""The corpus layer against its loop oracles in ``reference.py``.

``ingest_shard`` indexes lines in C and ``sample`` inlines ``randrange``;
both must give the shard the plain loops give, or fail with the same
message, on any bytes: every line break ``str.splitlines`` knows, Unicode
whitespace, blank lines and invalid UTF-8.
"""

import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from reference import floyd_sample, loop_ingest_shard

from sprachbund import corpus
from sprachbund.corpus import CorpusShard, SamplingPolicy, ingest_shard, sample
from sprachbund.errors import ValidationError

PIECES = [
    # words, one with a two-byte character
    b"a", b"xyz", "été".encode(),
    # line breaks: \n, \r\n and a lone \r
    b"\n", b"\r\n", b"\r",
    # the other separators str.splitlines splits on
    *(c.encode() for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    # whitespace that strip() removes, ASCII and Unicode; \x1f is not a
    # line break
    b" ", b"\t", b"\x1f", "\xa0".encode(), "\u2000".encode(),
    "\u3000".encode(),
    # a byte order mark: a character like any other, not whitespace
    "\ufeff".encode(),
    # bytes that are not UTF-8: a stray continuation byte, a truncated
    # two-byte sequence, a byte never used
    b"\x80", b"\xc3", b"\xff",
]
RARE_BREAKS = [c.encode() for c in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]
# what files without a rare line break are made of, \r\n kept: the path
# that indexes the lines in C
COMMON_PIECES = [p for p in PIECES
                 if p == b"\r\n" or not any(b in p for b in RARE_BREAKS)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pieces=st.lists(st.sampled_from(PIECES), max_size=80),
       cap=st.integers(1, 12), seed=st.integers(0, 2 ** 64 - 1))
@example(pieces=[b"a", "\x85".encode(), b"a", "\u2028".encode(), b"a"],
         cap=1, seed=0)
# each line break outside ASCII alone in a file
@example(pieces=[b"a", "\x85".encode(), b"a\n"], cap=1, seed=0)
@example(pieces=[b"a", "\u2028".encode(), b"a\n"], cap=1, seed=0)
@example(pieces=[b"a", "\u2029".encode(), b"a\n"], cap=1, seed=0)
@example(pieces=[b"a", b"\r", b"\n", "\xa0".encode(), b"\r", b"a"],
         cap=1, seed=0)
@example(pieces=[b"a", b"\n", b"\xc3"], cap=1, seed=0)
# a lone \r beside a \r\n: before it, after it, and last in the file
@example(pieces=[b"a", b"\r", b"\r\n", b"a"], cap=1, seed=0)
@example(pieces=[b"a", b"\r\n", b"\r", b"a\n"], cap=1, seed=0)
@example(pieces=[b"a", b"\r\n", b"a", b"\r"], cap=1, seed=0)
def test_ingest_and_sample_match_the_loops(tmp_path, toy_registry,
                                           pieces, cap, seed):
    path = tmp_path / "aa.txt"
    path.write_bytes(b"".join(pieces))
    got = outcome(ingest_shard, path, "aa", toy_registry)
    want = outcome(loop_ingest_shard, path, "aa", toy_registry)
    assert got == want
    if isinstance(want, CorpusShard):
        assert type(got.sentences) is tuple
        assert {tuple} >= set(map(type, got.sentences))
        policy = SamplingPolicy(cap=cap, seed=seed)
        assert sample(got, policy) == floyd_sample(want, policy)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pieces=st.lists(st.sampled_from(COMMON_PIECES), max_size=80),
       cap=st.integers(1, 12), seed=st.integers(0, 2 ** 64 - 1),
       chunk=st.sampled_from([4, 5, 7, 1 << 20]))
@example(pieces=[b"\n", b"a", b"\n", b"\n", b" ", b"\t", b"\n", b"a"],
         cap=1, seed=0, chunk=4)
@example(pieces=[b"a", "\u2000".encode(), b"\n", "\u2000".encode(),
                 "\xa0".encode(), b"\x1f", b"\n", b"a"],
         cap=1, seed=0, chunk=4)
# a \r\n split by a chunk's end, a blank CRLF line, a CRLF-ended file
@example(pieces=[b"xyz", b"\r\n", b"a"], cap=1, seed=0, chunk=4)
@example(pieces=[b"a", b"\r\n", b" ", b"\r\n", b"\r\n", b"a", b"\r\n"],
         cap=1, seed=0, chunk=5)
def test_files_with_newlines_only_match_the_loops(tmp_path, toy_registry,
                                                  pieces, cap, seed, chunk):
    """No rare line break (a \\r\\n is not one): the lines are indexed in
    C, the UTF-8 check and the newline search run in chunks of ``chunk``
    bytes."""
    path = tmp_path / "aa.txt"
    path.write_bytes(b"".join(pieces))
    with mock.patch.object(corpus, "_CHUNK", chunk):
        got = outcome(ingest_shard, path, "aa", toy_registry)
    want = outcome(loop_ingest_shard, path, "aa", toy_registry)
    assert got == want
    if isinstance(want, CorpusShard):
        assert type(vars(got)["_lines"]) is corpus._Lines
        assert list(got._lines) == [t for _, t in want.sentences]
        policy = SamplingPolicy(cap=cap, seed=seed)
        assert sample(got, policy) == floyd_sample(want, policy)


@pytest.mark.parametrize("text", [b"xyz\rab\r\n", b"xyz\r", b"xy\r\r\na"])
@pytest.mark.parametrize("chunk", [4, 1 << 20])
def test_lone_return_is_decoded_whole(tmp_path, toy_registry, text, chunk):
    """A \\r that no \\n follows, at a chunk's end or the file's, sends
    the file down the path that decodes it whole."""
    path = tmp_path / "aa.txt"
    path.write_bytes(text)
    with mock.patch.object(corpus, "_CHUNK", chunk):
        got = ingest_shard(path, "aa", toy_registry)
    assert type(vars(got)["_lines"]) is tuple
    assert got == loop_ingest_shard(path, "aa", toy_registry)


def test_space_lead_bytes_cover_every_whitespace_character():
    leads = {chr(c).encode()[0] for c in range(0x110000)
             if chr(c).isspace()}
    assert set(corpus._SPACE_LEAD.nonzero()[0].tolist()) == leads


def test_rare_breaks_are_every_other_separator():
    breaks = {c for c in map(chr, range(0x110000))
              if len(f"a{c}b".splitlines()) == 2} - {"\n"}
    controls = corpus._RARE_CONTROLS.nonzero()[0].tolist()
    assert ({chr(b) for b in controls}
            | set(corpus._WIDE_BREAKS)) == breaks


def test_every_subset_is_equally_likely():
    """n=6, cap=3: each of the 20 subsets over 20,000 seeds, against a
    chi-square bound (19 degrees of freedom, p = 0.001)."""
    n, cap, trials = 6, 3, 20_000
    shard = CorpusShard(language="aa",
                        sentences=tuple((i, f"s{i}") for i in range(n)))
    counts = Counter(
        tuple(i for i, _ in sample(shard, SamplingPolicy(cap, seed)).sentences)
        for seed in range(trials))
    subsets = list(itertools.combinations(range(n), cap))
    assert set(counts) == set(subsets)
    expected = trials / len(subsets)
    chi2 = sum((counts[s] - expected) ** 2 / expected for s in subsets)
    assert chi2 < 43.82, counts


@pytest.mark.parametrize("n", [2 ** k + d for k in range(1, 12)
                               for d in (-1, 0, 1)])
def test_sample_matches_randrange_across_powers_of_two(n):
    shard = CorpusShard(language="aa",
                        sentences=tuple((i, f"s{i}") for i in range(n)))
    for cap in (1, 2, 3):
        for seed in range(3):
            policy = SamplingPolicy(cap=cap, seed=seed)
            assert sample(shard, policy) == floyd_sample(shard, policy)


def test_getrandbits_draw_is_randrange():
    """The draw ``sample`` writes out is the one ``randrange`` makes on this
    Python, on both sides of each power of two, past one 32-bit word too."""
    bounds = [2 ** k + d for k in range(1, 70) for d in (-1, 0, 1)
              if 2 ** k + d >= 1]
    for seed in range(20):
        rng = random.Random(seed)
        getrandbits = random.Random(seed).getrandbits
        for m in bounds:
            k = m.bit_length()
            j = getrandbits(k)
            while j >= m:
                j = getrandbits(k)
            assert j == rng.randrange(m), (seed, m)


def test_shard_checks_name_what_failed():
    with pytest.raises(ValidationError, match="duplicate"):
        CorpusShard(language="aa", sentences=[(0, "x"), (0.0, "y")])
    with pytest.raises(ValidationError, match="sentence 3 is blank"):
        CorpusShard(language="aa", sentences=((1, "x"), (3, "\u3000")))
    with pytest.raises(ValidationError, match="sentence 2 is blank"):
        CorpusShard(language="aa", sentences=((1, "x"), (2, "")))
    with pytest.raises(ValidationError, match="sentence 4 is not a string"):
        CorpusShard(language="aa", sentences=((1, "x"), (4, 0)))


def test_shard_normalizes_pairs_and_ids():
    shard = CorpusShard(language="aa", sentences=[[True, "x"], ("2", "y")])
    assert shard.sentences == ((1, "x"), (2, "y"))
    assert [type(i) for i, _ in shard.sentences] == [int, int]
    assert {tuple} >= set(map(type, shard.sentences))
