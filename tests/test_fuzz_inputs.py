"""One value replaced anywhere in a user input, or in an artifact a stage
reads, ends the stage in its documented exit code: never an exception.

Each example copies a demo workspace, replaces one value of one document
(or one byte of a corpus file) and runs the stage that reads it. The
expectations below are this file's own, written from the documented file
formats and not from the loaders' declarations:

- ``cli.main`` returns 0, 1 or 2 and raises nothing;
- a value of another JSON kind at a path the stage reads exits 2, except
  an integer where a float was (a number field takes both), null where the
  format allows it, and a bool in a JSON Lines vector, which that hot path
  reads as a number;
- a number at a path the stage reads exits 2 if it is not finite as a float
  or lies outside the range the formats give that path;
- a config or registry refused so is refused before the workspace exists:
  no file is left;
- a registry whose codes repeat exits 2.

The examples are derandomized. Each parametrized case runs the profile's
examples: 100 by default, more under the ``ci`` profile that
``conftest.py`` registers (``--hypothesis-profile=ci``). Half the draws in
a document with ranged numbers go to one of those numbers.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sprachbund import cli, data

# each document a stage reads: its file, the stage, what it is passed as,
# its paths that stage does not read, and its paths that may be null ("*"
# stands for any list index)
TARGETS = {
    "config": ("config.json", "all", None, (), (
        ("corpus_root",), ("embeddings",), ("out",))),
    "registry": ("registry.json", "all", "registry", (), (
        ("languages", "*", "family"), ("languages", "*", "syntax"))),
    "lexical_table": ("lexical.json", "analyze", "lexical_table", (), ()),
    "matrix": ("matrix.json", "simmat", "matrix", (("v",),), ()),
    "embeddings": ("embeddings.jsonl", "embed", "embeddings", (), ()),
    "sampled.json": ("ws/sampled.json", "embed", None,
                     (("policy",), ("config_digest",)), ()),
    "embeddings.json": ("ws/embeddings.json", "repr", None,
                        (("config_digest",),), ()),
    "representations.json": ("ws/representations.json", "simmat", None,
                             (("config_digest",),), ()),
    "simmat.json": ("ws/simmat.json", "cluster", None,
                    (("config_digest",),), ()),
    "dendrogram.json": ("ws/dendrogram.json", "partition", None,
                        (("config_digest",),), ()),
}
# the ranges the formats give numbers: whether a finite number fits there
RANGES = {
    "config": {("k",): lambda x: x >= 1, ("seed",): lambda x: 0 <= x < 2 ** 64,
               ("tsne", "perplexity"): lambda x: x > 1,
               ("tsne", "iterations"): lambda x: 1 <= x <= 10 ** 5},
    "lexical_table": {("pairs", "*", "sim"): lambda x: 0 <= x <= 1},
    # a value beyond the clamp's 1e-9 of [-1, 1]
    "matrix": {("values", "*", "*"): lambda x: abs(x) <= 1 + 1e-9},
    "simmat.json": {("values", "*", "*"): lambda x: abs(x) <= 1 + 1e-9},
    "embeddings": {("header", "dim"): lambda x: x >= 1},
    "representations.json": {
        ("languages", "*", "sample_count"): lambda x: x >= 1},
    "dendrogram.json": {("merges", "*", "distance"): lambda x: x >= 0},
}

# huge integers, non-finite floats, nested lists, bools, null and strings;
# a string drawn for a file is a path relative to the example's directory,
# never one outside it ("/", "..")
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 64, 2 ** 63]),
    st.floats(), st.text(alphabet="ab1é _", max_size=3),
    st.sampled_from(["en", "1.5", "ca"]),
    st.lists(st.integers(0, 2) | st.lists(st.integers(0, 2), max_size=2),
             max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


def config_doc(root: Path) -> dict:
    return {"corpus_root": str(root / "corpus"),
            "embeddings": str(root / "embeddings.jsonl"),
            "k": 2, "seed": 7, "tsne": {"perplexity": 2.0, "iterations": 300},
            "out": str(root / "ws")}


@pytest.fixture(scope="module")
def template(tmp_path_factory) -> Path:
    """The demo's inputs, and the workspace of one `all` on them."""
    root = tmp_path_factory.mktemp("template")
    shutil.copytree(data.path("demo/corpus"), root / "corpus")
    for name, source in (("embeddings.jsonl", "demo/embeddings.jsonl"),
                         ("registry.json", "registry.json"),
                         ("lexical.json", "lexical_similarity.json"),
                         ("matrix.json", "embedding_similarity.json")):
        shutil.copyfile(data.path(source), root / name)
    (root / "config.json").write_text(json.dumps(config_doc(root)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["all", "--config", str(root / "config.json")]) == 0
    (root / "ws" / "run.log").unlink()
    return root


def paths(doc, at=()):
    """Every path into ``doc``, itself first."""
    yield at
    items = (doc.items() if type(doc) is dict
             else enumerate(doc) if type(doc) is list else ())
    for key, value in items:
        yield from paths(value, at + (key,))


def pattern(path) -> tuple:
    return tuple("*" if type(key) is int else key for key in path)


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def variants(value) -> list:
    """``value`` as other JSON kinds, and other values of its kind."""
    out = [None, [value], {"x": value}, json.dumps(value)]
    if type(value) in (int, float):
        out += [float(value), int(value), value + 1, -value, value == 1, 0, -1]
    return out


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def run(root: Path, stage: str) -> int:
    """``cli.main`` of ``stage`` on ``root``'s config, in ``root``, so a
    relative path drawn for a file stays in there."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main([stage, "--config", str(root / "config.json")])
    finally:
        os.chdir(cwd)


def another_kind(original, value, shape, target) -> bool:
    """Whether ``value`` is of another JSON kind than ``original``, at a
    path of ``target`` that its stage reads, where its format does not
    also take ``value``'s kind."""
    _, _, _, unread, nullable = TARGETS[target]
    old, new = type(original), type(value)
    return not (
        new is old or (old, new) == (float, int)
        or any(shape[:len(u)] == u for u in unread)
        or (value is None and shape in nullable)
        or (target == "embeddings" and shape[1:] == ("vec", "*")
            and new is bool))


def out_of_range(value, shape, target) -> bool:
    """Whether ``value`` is a number, at a path of ``target`` that its stage
    reads, that is not finite as a float or lies outside its range there."""
    unread = TARGETS[target][3]
    if (type(value) not in (int, float)
            or any(shape[:len(u)] == u for u in unread)):
        return False
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return True
    fits = RANGES.get(target, {}).get(shape, lambda x: True)
    return not (finite and fits(value))


@pytest.mark.parametrize("target", list(TARGETS) + ["corpus"])
@settings(derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(draw=st.data())
def test_one_replaced_value(template, target, draw):
    name, stage, key = TARGETS.get(target, ("", "sample", None))[:3]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(template, root, dirs_exist_ok=True)
        if stage == "all":  # `all` makes the workspace, if the input passes
            shutil.rmtree(root / "ws")
        cfg = config_doc(root)
        if key:
            cfg[key] = str(root / name)
        (root / "config.json").write_text(json.dumps(cfg))
        if target == "corpus":  # some bytes of one file
            shard = draw.draw(st.sampled_from(sorted(
                (root / "corpus").iterdir())))
            raw = shard.read_bytes()
            at = draw.draw(st.integers(0, len(raw)))
            shard.write_bytes(raw[:at] + draw.draw(st.binary(max_size=3))
                              + raw[at + draw.draw(st.integers(0, 3)):])
            assert run(root, stage) in (0, 1, 2)
            return
        path = root / name
        if target == "embeddings":  # one document a line
            doc = [json.loads(line) for line in path.read_text().splitlines()]
        else:
            doc = json.loads(path.read_text())
        chosen = {}
        for p in paths(doc):
            shape = pattern(p)
            if target == "embeddings" and p:  # the header, or any record
                shape = ("header" if p[0] == 0 else "record",) + shape[1:]
            if p or target != "embeddings":  # a file of lines is no document
                chosen.setdefault(shape, []).append(p)
        shapes = sorted(chosen, key=repr)
        # half the draws go to a number with a range, if the document has one
        ranged = [s for s in shapes if s in RANGES.get(target, {})]
        shape = draw.draw(st.sampled_from(shapes) | st.sampled_from(ranged)
                          if ranged else st.sampled_from(shapes))
        at = draw.draw(st.sampled_from(chosen[shape]))
        original = value_at(doc, at)
        # a third each: a drawn value, the original as another kind or a
        # nearby number, or the value of another path of the same shape (a
        # repeated registry code, say)
        siblings = [value_at(doc, p) for p in chosen[shape][:40] if p != at]
        value = draw.draw(draw.draw(st.sampled_from([
            VALUES, st.sampled_from(variants(original)),
            st.sampled_from(siblings or [original])])))
        # a valid iteration count above 10**4 runs for minutes; a count
        # beyond the bound is still drawn, and must exit 2
        assume(not (shape == ("tsne", "iterations") and type(value) is int
                    and 10 ** 4 < value <= 10 ** 5))
        doc = replaced(doc, at, value)
        path.write_text("\n".join(map(json.dumps, doc)) + "\n"
                        if target == "embeddings" else json.dumps(doc))

        rc = run(root, stage)
        assert rc in (0, 1, 2)
        if (another_kind(original, value, shape, target)
                or out_of_range(value, shape, target)):
            assert rc == 2, (at, value)
            if stage == "all":  # refused before the workspace exists
                assert not (root / "ws").exists(), (at, value)
        entries = doc.get("languages") if type(doc) is dict else None
        if target == "registry" and type(entries) is list:
            codes = [e.get("code") for e in entries if type(e) is dict]
            if len(set(map(repr, codes))) < len(codes):
                assert rc == 2, (at, value)
