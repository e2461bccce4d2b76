import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sprachbund import cli, data
from sprachbund.cluster import Dendrogram, cut
from sprachbund.corpus import CorpusShard
from sprachbund.projection import TsneParams
from sprachbund.simmatrix import SimilarityMatrix


@pytest.fixture
def demo_config(tmp_path):
    def factory(**overrides):
        cfg = {
            "corpus_root": str(data.path("demo/corpus")),
            "embeddings": str(data.path("demo/embeddings.jsonl")),
            "k": 2,
            "seed": 7,
            "tsne": {"perplexity": 2.0, "iterations": 300},
            "out": str(tmp_path / "ws"),
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path
    return factory


def artifacts_in(ws: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(ws.iterdir())
            if p.name != "run.log"}


class TestAllPipeline:
    def test_demo_all_produces_k2_manifest_and_report(self, demo_config,
                                                      tmp_path, capsys):
        assert cli.main(["all", "--config", str(demo_config())]) == 0
        ws = tmp_path / "ws"
        manifest = json.loads((ws / "manifest_k2.json").read_text())
        assert manifest["k"] == 2
        members = sorted(tuple(c["members"]) for c in manifest["clusters"])
        assert members == [("ca", "es", "fr", "pt", "ro"), ("de", "en", "ru")]
        for cluster in manifest["clusters"]:
            assert cluster["pivot"] in cluster["members"]
        report = json.loads((ws / "analysis.json").read_text())["report"]
        assert report["pearson_lexical"]["pair_count"] == 15
        assert "lexical correlation" in capsys.readouterr().out
        assert (ws / "projection.svg").exists()

    def test_reruns_are_idempotent(self, demo_config, tmp_path):
        cfg = demo_config()
        assert cli.main(["all", "--config", str(cfg)]) == 0
        first = artifacts_in(tmp_path / "ws")
        assert cli.main(["all", "--config", str(cfg)]) == 0
        second = artifacts_in(tmp_path / "ws")
        assert first == second

    def test_two_workspaces_byte_identical(self, demo_config, tmp_path):
        cfg_a = demo_config(out=str(tmp_path / "ws_a"))
        assert cli.main(["all", "--config", str(cfg_a)]) == 0
        cfg_b = demo_config(out=str(tmp_path / "ws_b"))
        assert cli.main(["all", "--config", str(cfg_b)]) == 0
        assert artifacts_in(tmp_path / "ws_a") == artifacts_in(tmp_path / "ws_b")

    def test_artifacts_carry_version_and_digest(self, demo_config, tmp_path):
        assert cli.main(["all", "--config", str(demo_config())]) == 0
        ws = tmp_path / "ws"
        digests = set()
        for name in ("sampled.json", "embeddings.json", "representations.json",
                     "simmat.json", "dendrogram.json", "manifest_k2.json",
                     "analysis.json", "projection.json"):
            doc = json.loads((ws / name).read_text())
            assert doc["v"] == 1
            digests.add(doc["config_digest"])
        assert len(digests) == 1
        assert f"config_digest={digests.pop()}" in \
            (ws / "projection.svg").read_text().splitlines()[0]

    def test_workspace_holds_each_fact_once(self, demo_config, tmp_path):
        """Every file is read by a later stage or is a deliverable, and no
        field repeats what its own file already holds."""
        assert cli.main(["all", "--config", str(demo_config())]) == 0
        ws = tmp_path / "ws"
        assert sorted(p.name for p in ws.iterdir()) == [
            "analysis.json", "dendrogram.json", "embeddings.json",
            "embeddings.npy", "manifest_k2.json", "projection.json",
            "projection.svg", "representations.json", "representations.npy",
            "run.log", "sampled.json", "simmat.json"]
        sampled = json.loads((ws / "sampled.json").read_text())
        assert sorted(sampled) == ["config_digest", "policy", "shards", "v"]
        assert sorted(sampled["shards"][0]) == ["language", "sentences"]
        reps = json.loads((ws / "representations.json").read_text())
        assert sorted(reps) == ["config_digest", "dim", "languages", "v"]
        assert sorted(reps["languages"][0]) == ["lang", "sample_count"]
        assert np.load(ws / "representations.npy").shape == \
            (len(reps["languages"]), reps["dim"])
        manifest = json.loads((ws / "manifest_k2.json").read_text())
        assert "config_digest" not in manifest["provenance"]

    def test_sample_logs_its_counts(self, demo_config, tmp_path):
        assert cli.main(["sample", "--config", str(demo_config())]) == 0
        assert "sample languages=8 sentences=96 bytes=3063\n" in \
            (tmp_path / "ws" / "run.log").read_text()

    def test_repr_logs_its_counts(self, demo_config, tmp_path):
        cfg = str(demo_config())
        for stage in ("sample", "embed", "repr"):
            assert cli.main([stage, "--config", cfg]) == 0
        ws = tmp_path / "ws"
        written = sum((ws / name).stat().st_size for name in
                      ("representations.npy", "representations.json"))
        assert f"repr languages=8 dim=8 bytes_written={written}\n" in \
            (ws / "run.log").read_text()

    def test_simmat_logs_its_counts(self, demo_config, tmp_path):
        cfg = str(demo_config())
        for stage in ("sample", "embed", "repr", "simmat"):
            assert cli.main([stage, "--config", cfg]) == 0
        ws = tmp_path / "ws"
        written = (ws / "simmat.json").stat().st_size
        assert f"simmat languages=8 bytes_written={written}\n" in \
            (ws / "run.log").read_text()

    @staticmethod
    def project_line(ws: Path) -> dict[str, str]:
        lines = [line for line in (ws / "run.log").read_text().splitlines()
                 if " project iterations=" in line]
        assert len(lines) == 1, lines
        return dict(field.split("=") for field in lines[0].split()[2:])

    def test_project_logs_its_fit(self, demo_config, tmp_path):
        assert cli.main(["all", "--config", str(demo_config())]) == 0
        fit = self.project_line(tmp_path / "ws")
        assert fit["iterations"] == "300"
        assert 0.0 < float(fit["final_kl"]) < math.inf
        assert fit["unconverged_rows"] == "0"

    def test_project_logs_rows_off_the_target_perplexity(self, demo_config,
                                                         tmp_path):
        # one orthogonal vector per language: every distance is 1, so no
        # bandwidth brings a row's 7 equal entries down to 1 bit
        codes = sorted(p.stem for p in data.path("demo/corpus").iterdir())
        lines = [json.dumps({"dim": 8, "v": 1})]
        for i, code in enumerate(codes):
            vec = [float(j == i) for j in range(8)]
            lines += [json.dumps({"id": sid, "lang": code, "vec": vec})
                      for sid in range(12)]
        jsonl = tmp_path / "orthogonal.jsonl"
        jsonl.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = str(demo_config(embeddings=str(jsonl)))
        for stage in ("sample", "embed", "repr", "simmat", "project"):
            assert cli.main([stage, "--config", cfg]) == 0
        assert self.project_line(tmp_path / "ws")["unconverged_rows"] == "8"


    @pytest.mark.parametrize("registry_file", [False, True])
    def test_all_reads_the_registry_once(self, demo_config, monkeypatch,
                                         registry_file):
        reads = []
        for name in ("load_registry", "bundled_registry"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *args, real=real, name=name:
                                reads.append(name) or real(*args))
        overrides = ({"registry": str(data.path("registry.json"))}
                     if registry_file else {})
        assert cli.main(["all", "--config", str(demo_config(**overrides))]) == 0
        assert reads == ["load_registry" if registry_file
                         else "bundled_registry"]

    def test_projection_params_rebuild_the_run_parameters(self, demo_config,
                                                          tmp_path):
        path = str(demo_config())
        for stage in ("sample", "embed", "repr", "simmat", "project"):
            assert cli.main([stage, "--config", path]) == 0
        doc = json.loads((tmp_path / "ws" / "projection.json").read_text())
        args = cli.build_parser().parse_args(["project", "--config", path])
        assert TsneParams(**doc["params"]) == \
            cli.resolve_config(args).tsne_params()
        assert set(doc["params"]) == set(TsneParams.__dataclass_fields__)


class TestStageOrder:
    def test_cluster_without_upstream_artifacts_exits_2(self, tmp_path, capsys):
        rc = cli.main(["cluster", "--out", str(tmp_path / "empty")])
        assert rc == 2
        assert "missing input simmat.json" in capsys.readouterr().err

    def test_project_without_simmat_exits_2(self, demo_config, tmp_path,
                                            capsys):
        cfg = str(demo_config())
        for stage in ("sample", "embed", "repr"):
            assert cli.main([stage, "--config", cfg]) == 0
        assert cli.main(["project", "--config", cfg]) == 2
        assert "missing input simmat.json; run `sprachbund simmat` first" in \
            capsys.readouterr().err

    def test_project_reads_the_matrix_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "matrix": str(data.path("embedding_similarity.json")),
            "tsne": {"perplexity": 2.0}, "out": str(tmp_path / "ws")}))
        assert cli.main(["project", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "ws" / "projection.json").read_text())
        assert doc["languages"] == list(
            cli.load_matrix(data.path("embedding_similarity.json")).languages)
        assert (tmp_path / "ws" / "projection.svg").exists()

    def test_repr_without_embeddings_exits_2(self, tmp_path, capsys):
        rc = cli.main(["repr", "--out", str(tmp_path / "empty")])
        assert rc == 2
        assert "embed" in capsys.readouterr().err


class TestAnalyze:
    def test_reproduces_reference_correlation(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "matrix": str(data.path("embedding_similarity.json")),
            "out": str(tmp_path / "ws"),
        }), encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg)]) == 0
        report = json.loads(
            (tmp_path / "ws" / "analysis.json").read_text())["report"]
        assert report["pearson_lexical"]["r"] == pytest.approx(0.83, abs=0.03)
        assert report["pearson_lexical"]["pair_count"] == 15
        assert report["family_purity"] is None  # no dendrogram artifact


class TestOneClustering:
    """partition and analyze cut the cluster stage's dendrogram at the K
    they are given."""

    def test_partition_cuts_the_dendrogram_at_k(self, demo_config, tmp_path):
        cfg = str(demo_config())
        assert cli.main(["all", "--config", cfg]) == 0
        assert cli.main(["partition", "--config", cfg, "--k", "3"]) == 0
        ws = tmp_path / "ws"
        dendrogram = Dendrogram.from_json(
            json.loads((ws / "dendrogram.json").read_text()))
        manifest = json.loads((ws / "manifest_k3.json").read_text())
        assert manifest["k"] == 3
        assert tuple(tuple(c["members"]) for c in manifest["clusters"]) == \
            cut(dendrogram, 3).members

    def test_analyze_cuts_the_dendrogram_at_k(self, demo_config, tmp_path):
        cfg = str(demo_config())
        assert cli.main(["all", "--config", cfg]) == 0
        assert cli.main(["analyze", "--config", cfg, "--k", "3"]) == 0
        report = json.loads(
            (tmp_path / "ws" / "analysis.json").read_text())["report"]
        assert len(report["family_purity"]["per_cluster"]) == 3

    def test_partition_without_dendrogram_exits_2(self, demo_config, capsys):
        cfg = str(demo_config())
        for stage in ("sample", "embed", "repr", "simmat"):
            assert cli.main([stage, "--config", cfg]) == 0
        assert cli.main(["partition", "--config", cfg]) == 2
        assert "missing input dendrogram.json; run `sprachbund cluster` first" \
            in capsys.readouterr().err


class TestMatrixHandOff:
    """Under `all` the stages after `simmat` take the matrix it built from
    memory; a single-stage command reads it from disk, once."""

    @staticmethod
    def count_parses(monkeypatch) -> list:
        calls = []
        real = SimilarityMatrix.from_json.__func__
        monkeypatch.setattr(SimilarityMatrix, "from_json", classmethod(
            lambda cls, doc, source="matrix JSON":
            calls.append(str(source)) or real(cls, doc, source)))
        return calls

    def test_all_parses_no_matrix_and_a_lone_stage_one(self, demo_config,
                                                       monkeypatch):
        cfg = str(demo_config())
        calls = self.count_parses(monkeypatch)
        assert cli.main(["all", "--config", cfg]) == 0
        assert calls == []
        assert cli.main(["cluster", "--config", cfg]) == 0
        assert [Path(source).name for source in calls] == ["simmat.json"]

    def test_all_equals_the_stages_run_one_by_one(self, demo_config,
                                                  tmp_path):
        assert cli.main(["all", "--config",
                         str(demo_config(out=str(tmp_path / "all")))]) == 0
        cfg = str(demo_config(out=str(tmp_path / "stages")))
        for stage in cli.STAGE_ORDER:
            assert cli.main([stage, "--config", cfg]) == 0
        assert artifacts_in(tmp_path / "all") == artifacts_in(tmp_path / "stages")

    def test_all_feeds_the_matrix_file_to_later_stages(self, demo_config,
                                                       tmp_path, monkeypatch):
        matrix_file = data.path("embedding_similarity.json")
        seen = {}
        for name in ("agglomerate", "sweep", "build_report", "project"):
            def spy(*args, real=getattr(cli, name), name=name, **kwargs):
                seen[name] = args[1 if name == "sweep" else 0]  # the matrix
                return real(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        assert cli.main(["all", "--config",
                         str(demo_config(matrix=str(matrix_file)))]) == 0
        expected = cli.load_matrix(matrix_file)
        built = json.loads((tmp_path / "ws" / "simmat.json").read_text())
        assert tuple(built["languages"]) != expected.languages
        assert sorted(seen) == ["agglomerate", "build_report", "project", "sweep"]
        for matrix in seen.values():
            assert matrix.languages == expected.languages
            assert np.array_equal(matrix.values, expected.values)

    @pytest.mark.parametrize("source", ["built", "simmat.json", "matrix"])
    def test_kept_matrix_is_read_only(self, demo_config, tmp_path, source):
        overrides = ({"matrix": str(data.path("embedding_similarity.json"))}
                     if source == "matrix" else {})
        path = str(demo_config(**overrides))
        for stage in ("sample", "embed", "repr"):
            assert cli.main([stage, "--config", path]) == 0
        if source == "simmat.json":  # written by another run
            assert cli.main(["simmat", "--config", path]) == 0
        cfg = cli.resolve_config(
            cli.build_parser().parse_args(["simmat", "--config", path]))
        if source != "simmat.json":
            cli.run("simmat", cfg)
        ws = tmp_path / "ws"
        matrix = cli._load_simmat(cfg, ws)
        assert cli._load_simmat(cfg, ws) is matrix
        with pytest.raises(ValueError, match="read-only"):
            matrix.values[0, 1] = 0.5


class TestShardHandOff:
    """Under `all` the embed stage takes the shards `sample` drew from
    memory, for either embedding source; a lone `embed` reads
    `sampled.json`, once."""

    @pytest.mark.parametrize("source", ["embeddings", "endpoint"])
    def test_all_parses_no_sample_and_a_lone_embed_one(
            self, demo_config, embedding_server, monkeypatch, source):
        overrides = ({} if source == "embeddings" else
                     {"embeddings": None,
                      "endpoint": embedding_server(dim=6).endpoint})
        cfg = str(demo_config(**overrides))
        calls = []
        real = cli._sampled_shards
        monkeypatch.setattr(cli, "_sampled_shards",
                            lambda ws: calls.append(ws) or real(ws))
        assert cli.main(["all", "--config", cfg]) == 0
        assert calls == []
        assert cli.main(["embed", "--config", cfg]) == 0
        assert len(calls) == 1

    def test_kept_shards_are_immutable(self, demo_config):
        path = str(demo_config())
        cfg = cli.resolve_config(
            cli.build_parser().parse_args(["sample", "--config", path]))
        cli.run("sample", cfg)
        assert type(cfg._shards) is tuple and len(cfg._shards) == 8
        for shard in cfg._shards:
            assert type(shard.sentences) is tuple
            assert {type(pair) for pair in shard.sentences} == {tuple}
            with pytest.raises(dataclasses.FrozenInstanceError):
                shard.sentences = ()


def _python(args: list[str], openblas_threads: str | None):
    """Run this checkout's package in a fresh interpreter, with
    OPENBLAS_NUM_THREADS set to ``openblas_threads`` or unset for None."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestBlasThreads:
    """Importing the package pins OpenBLAS to one thread before numpy loads,
    unless the user set the thread count."""

    # prints OPENBLAS_NUM_THREADS as numpy's import finds it, then after
    # the package import
    PROBE = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
import sprachbund
print(seen[0], os.environ["OPENBLAS_NUM_THREADS"])
"""

    def test_unset_becomes_one_before_numpy_loads(self):
        proc = _python(["-c", self.PROBE], None)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1"]

    def test_user_setting_wins(self):
        proc = _python(["-c", self.PROBE], "3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["3", "3"]

    def test_thread_count_leaves_artifacts_unchanged(self, demo_config,
                                                     tmp_path):
        threads = ["1", str(max(2, os.cpu_count() or 1))]
        for n in threads:
            cfg = str(demo_config(out=str(tmp_path / f"ws{n}")))
            proc = _python(["-m", "sprachbund.cli", "all", "--config", cfg], n)
            assert proc.returncode == 0, proc.stderr
        assert artifacts_in(tmp_path / f"ws{threads[0]}") == \
            artifacts_in(tmp_path / f"ws{threads[1]}")


class TestSweep:
    def test_sweep_writes_one_manifest_per_k(self, demo_config, tmp_path):
        cfg = demo_config(sweep=[1, 2, 4])
        assert cli.main(["all", "--config", str(cfg)]) == 0
        ws = tmp_path / "ws"
        for k in (1, 2, 4):
            manifest = json.loads((ws / f"manifest_k{k}.json").read_text())
            assert manifest["k"] == k

    def test_sweep_flag_overrides_config(self, demo_config, tmp_path):
        cfg = demo_config()
        assert cli.main(["all", "--config", str(cfg),
                         "--sweep", "1,2"]) == 0
        assert (tmp_path / "ws" / "manifest_k1.json").exists()
        assert (tmp_path / "ws" / "manifest_k2.json").exists()


class TestErrors:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 1

    def test_both_embedding_sources_is_usage_error(self, demo_config):
        cfg = demo_config()
        rc = cli.main(["embed", "--config", str(cfg),
                       "--endpoint", "http://127.0.0.1:9"])
        assert rc == 1

    def test_bad_sweep_value_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["partition", "--out", str(tmp_path / "ws"),
                       "--sweep", "1,x"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--sweep" in err and "'1,x'" in err

    @pytest.mark.parametrize("key, value", [
        ("k", "two"), ("k", True), ("k", 2.5), ("sweep", [1, "x"]),
        ("allow_missing", None), ("languages", "en"), ("point_radius", "5"),
        ("tsne", []), ("out", 5), ("tsne.perplexity", "x"),
        ("tsne.iterations", "ten"), ("tsne.learning_rate", None),
        ("tsne.seed", 1.5),
    ])
    def test_wrongly_typed_config_value_exits_2(self, tmp_path, capsys,
                                                key, value):
        doc = {key: value}
        if key.startswith("tsne."):
            doc = {"tsne": {key.removeprefix("tsne."): value}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "ws"), **doc}),
                       encoding="utf-8")
        assert cli.main(["cluster", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: config key {key!r} must be" in err

    def test_tsne_value_error_names_key_type_and_value(self, demo_config,
                                                        capsys):
        cfg = demo_config(tsne={"perplexity": "x"})
        assert cli.main(["all", "--config", str(cfg)]) == 2
        assert f"{cfg}: config key 'tsne.perplexity' must be float, " \
               f'got "x"' in capsys.readouterr().err

    def test_unknown_tsne_key_exits_2(self, demo_config, capsys):
        cfg = demo_config(tsne={"perplexity": 2.0, "perplex": 3.0})
        assert cli.main(["project", "--config", str(cfg)]) == 2
        assert f"{cfg}: unknown config key(s): tsne.perplex" in \
            capsys.readouterr().err

    def test_config_values_of_the_right_type_load(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v": 1, "point_radius": 6, "sweep": None,
                                   "languages": ["en"], "tsne": {}}),
                       encoding="utf-8")
        assert cli.load_config(cfg) == {"point_radius": 6, "sweep": None,
                                        "languages": ["en"], "tsne": {}}

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "x", "capp": 3}), encoding="utf-8")
        assert cli.main(["sample", "--config", str(cfg)]) == 2

    def test_missing_embeddings_file_exits_2(self, demo_config, tmp_path,
                                             capsys):
        cfg = demo_config(embeddings=str(tmp_path / "nowhere.jsonl"))
        assert cli.main(["sample", "--config", str(cfg)]) == 0
        assert cli.main(["embed", "--config", str(cfg)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_matrix_file_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "matrix": str(tmp_path / "no_such_matrix.json"),
            "out": str(tmp_path / "ws"),
        }), encoding="utf-8")
        assert cli.main(["analyze", "--config", str(cfg)]) == 2

    def test_unreachable_endpoint_exits_3(self, demo_config, tmp_path, capsys):
        cfg = demo_config(embeddings=None, endpoint="http://127.0.0.1:9")
        assert cli.main(["sample", "--config", str(cfg)]) == 0
        rc = cli.main(["embed", "--config", str(cfg)])
        assert rc == 3

    def test_json_errors_flag_emits_machine_readable(self, tmp_path, capsys):
        rc = cli.main(["cluster", "--out", str(tmp_path / "w"),
                       "--json-errors"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "simmat.json" in err["message"]

    def test_locked_workspace_exits_2(self, demo_config, tmp_path, capsys):
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / ".lock").write_text(str(os.getpid()))
        rc = cli.main(["all", "--config", str(demo_config())])
        assert rc == 2
        assert "locked" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["", "not a pid", "0"])
    def test_lock_being_written_or_unreadable_is_refused(
            self, demo_config, tmp_path, capsys, content):
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / ".lock").write_text(content)
        rc = cli.main(["cluster", "--config", str(demo_config())])
        assert rc == 2
        assert "locked" in capsys.readouterr().err

    def test_lock_of_exited_process_is_reclaimed(self, demo_config, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=60)
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / ".lock").write_text(str(child.pid))
        assert cli.main(["sample", "--config", str(demo_config())]) == 0
        assert not (ws / ".lock").exists()
        assert f"exited pid {child.pid}" in (ws / "run.log").read_text()

    def test_lock_of_other_users_process_is_refused(self, demo_config, tmp_path,
                                                    monkeypatch, capsys):
        def kill(pid, sig):
            raise PermissionError(1, "Operation not permitted")
        monkeypatch.setattr(cli.os, "kill", kill)
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / ".lock").write_text("4242")
        assert cli.main(["cluster", "--config", str(demo_config())]) == 2
        assert "locked" in capsys.readouterr().err

    def test_truncated_artifact_exits_2_with_position(self, demo_config,
                                                      tmp_path, capsys):
        cfg = str(demo_config())
        for stage in ("sample", "embed", "repr", "simmat"):
            assert cli.main([stage, "--config", cfg]) == 0
        simmat = tmp_path / "ws" / "simmat.json"
        simmat.write_bytes(simmat.read_bytes()[:200])
        assert cli.main(["cluster", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "simmat.json: line" in err and "column" in err


class TestDamagedArtifacts:
    @pytest.mark.parametrize("name, stage, key", [
        ("sampled.json", "embed", "shards"),
        ("embeddings.json", "repr", "dim"),
        ("representations.json", "simmat", "dim"),
        ("simmat.json", "cluster", "languages"),
        ("dendrogram.json", "partition", "languages"),
    ])
    def test_missing_key_exits_2(self, demo_config, tmp_path, capsys,
                                 name, stage, key):
        cfg = str(demo_config())
        for earlier in cli.STAGE_ORDER[:cli.STAGE_ORDER.index(stage)]:
            assert cli.main([earlier, "--config", cfg]) == 0
        (tmp_path / "ws" / name).write_text('{"v": 1}')
        capsys.readouterr()
        assert cli.main([stage, "--config", cfg]) == 2
        assert f"{name}: missing key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (5, "sentence 0 is not a string"), ("  ", "sentence 0 is blank")])
    def test_damaged_sentence_exits_2(self, demo_config, tmp_path, capsys,
                                      text, message):
        cfg = str(demo_config())
        assert cli.main(["sample", "--config", cfg]) == 0
        path = tmp_path / "ws" / "sampled.json"
        doc = json.loads(path.read_text())
        doc["shards"][0]["sentences"][0][1] = text
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["embed", "--config", cfg]) == 2
        assert f"sampled.json: shard for 'ca': {message}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        (lambda npy: npy.unlink(), "missing input embeddings.npy"),
        (lambda npy: npy.write_bytes(npy.read_bytes()[:-4]), "unreadable"),
        (lambda npy: np.save(npy, np.load(npy)[:-1]), "embeddings.json lists 96"),
        (lambda npy: np.save(npy, np.load(npy).astype(np.float64)), "<f8"),
    ])
    def test_damaged_store_exits_2(self, demo_config, tmp_path, capsys,
                                   damage, message):
        cfg = str(demo_config())
        for stage in ("sample", "embed"):
            assert cli.main([stage, "--config", cfg]) == 0
        damage(tmp_path / "ws" / "embeddings.npy")
        assert cli.main(["repr", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    @staticmethod
    def drop_last_language(npy: Path) -> None:
        index = json.loads(npy.with_suffix(".json").read_text())
        index["languages"].pop()
        npy.with_suffix(".json").write_text(json.dumps(index))

    @pytest.mark.parametrize("damage, message", [
        (lambda npy: npy.unlink(), "missing input representations.npy"),
        (lambda npy: npy.write_bytes(npy.read_bytes()[:-4]),
         "representations.npy: unreadable representation store"),
        (lambda npy: np.save(npy, np.load(npy)[:, :-1]),
         "representations.npy: holds a <f4 matrix of shape (8, 7)"),
        (lambda npy: np.save(npy, np.load(npy).astype(np.float64)),
         "representations.npy: holds a <f8 matrix"),
        (lambda npy: np.save(npy, np.asfortranarray(np.load(npy))),
         "representations.npy: holds a <f4 matrix of shape (8, 8)"),
        (drop_last_language, "representations.json lists 7 rows of 8"),
    ], ids=["missing", "truncated", "wrong-shape", "wrong-dtype",
            "fortran-order", "rows-differ-from-index"])
    def test_damaged_centroid_store_exits_2(self, demo_config, tmp_path,
                                            capsys, damage, message):
        cfg = str(demo_config())
        for stage in ("sample", "embed", "repr"):
            assert cli.main([stage, "--config", cfg]) == 0
        damage(tmp_path / "ws" / "representations.npy")
        capsys.readouterr()
        assert cli.main(["simmat", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ws" / "simmat.json").exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda d: d["merges"][0].update(left=99), "merge 8 must join"),
        (lambda d: d["merges"][1].update(left=d["merges"][0]["right"]),
         "merge 9 must join"),
        (lambda d: d["merges"][2].update(distance=float("nan")), "finite"),
        (lambda d: d["merges"][2].update(distance=float("inf")), "finite"),
        (lambda d: d["languages"].reverse(), "languages differ"),
    ], ids=["child-out-of-range", "child-used-twice", "nan-distance",
            "infinite-distance", "other-languages"])
    def test_damaged_dendrogram_exits_2(self, demo_config, tmp_path, capsys,
                                        damage, message):
        cfg = str(demo_config())
        assert cli.main(["all", "--config", cfg]) == 0
        path = tmp_path / "ws" / "dendrogram.json"
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["partition", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err

    def test_matrix_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.json"
        matrix.write_text("5")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"matrix": str(matrix),
                                   "out": str(tmp_path / "ws")}))
        assert cli.main(["cluster", "--config", str(cfg)]) == 2
        assert "expected a JSON object, got int" in capsys.readouterr().err

    @staticmethod
    def matrix_with(tmp_path, value: float) -> Path:
        """The bundled matrix with its ('ca', 'fr') pair set to ``value``."""
        doc = json.loads(data.path("embedding_similarity.json").read_text())
        doc["values"][0][2] = doc["values"][2][0] = value
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(doc))
        return path

    def test_rounding_error_past_one_is_clamped(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "matrix": str(self.matrix_with(tmp_path, 1.0000000001)),
            "tsne": {"perplexity": 2.0, "iterations": 300},
            "out": str(tmp_path / "ws")}))
        for stage in ("cluster", "project"):
            assert cli.main([stage, "--config", str(cfg)]) == 0, stage

    @pytest.mark.parametrize("stage", ["cluster", "project"])
    def test_similarity_past_one_exits_2_naming_file_and_pair(
            self, tmp_path, capsys, stage):
        matrix = self.matrix_with(tmp_path, 1.01)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"matrix": str(matrix),
                                   "out": str(tmp_path / "ws")}))
        assert cli.main([stage, "--config", str(cfg)]) == 2
        assert (f"{matrix}: similarity of ('ca', 'fr') is 1.01, "
                f"outside [-1, 1]") in capsys.readouterr().err

    def test_source_digest_is_read_in_chunks(self, tmp_path):
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(0).bytes(5 * 2 ** 19 + 7))
        assert cli._file_digest(path) == \
            hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class TestOutOfRangeProjectValues:
    """Seeds outside [0, 2**64), t-SNE values outside their ranges and plot
    sizes that are not positive exit 2 with a message, never with a
    traceback."""

    @pytest.mark.parametrize("tsne, flags, message", [
        ({}, ["--seed", "-1"], "seed must be an unsigned 64-bit integer"),
        ({"seed": -4}, [], "seed must be an unsigned 64-bit integer"),
        ({}, ["--point-radius", "-3"], "point_radius must be positive"),
        ({}, ["--font-size", "0"], "font_size must be positive"),
        ({"iterations": 0}, [], "tsne.iterations must be >= 1, got 0"),
        ({"exaggeration_iters": -5}, [],
         "tsne.exaggeration_iters must be >= 0, got -5"),
        ({"momentum_switch_iter": -1}, [],
         "tsne.momentum_switch_iter must be >= 0, got -1"),
        ({"learning_rate": -10}, [], "tsne.learning_rate must be > 0, got -10"),
        ({"early_exaggeration": 0}, [],
         "tsne.early_exaggeration must be > 0, got 0"),
        ({"init_scale": 0}, [], "tsne.init_scale must be > 0, got 0"),
        ({"min_gain": -1}, [], "tsne.min_gain must be >= 0, got -1"),
        ({"initial_momentum": 1.0}, [],
         "tsne.initial_momentum must be in [0, 1), got 1.0"),
        ({"final_momentum": 5}, [],
         "tsne.final_momentum must be in [0, 1), got 5"),
        ({"final_momentum": -0.5}, [],
         "tsne.final_momentum must be in [0, 1), got -0.5"),
        ({"perplexity": 1}, [], "tsne.perplexity must be > 1, got 1"),
        ({"perplexity": math.nan}, [], "tsne.perplexity must be > 1, got nan"),
    ], ids=["seed", "tsne-seed", "point-radius", "font-size", "iterations",
            "exaggeration-iters", "momentum-switch-iter", "learning-rate",
            "early-exaggeration", "init-scale", "min-gain",
            "initial-momentum", "final-momentum-high", "final-momentum-low",
            "perplexity", "perplexity-nan"])
    def test_project_exits_2(self, demo_config, tmp_path, tsne, flags,
                             message):
        cfg = str(demo_config())
        for stage in ("sample", "embed", "repr", "simmat"):
            assert cli.main([stage, "--config", cfg]) == 0
        cfg = str(demo_config(tsne={"perplexity": 2.0, "iterations": 10,
                                    **tsne}))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sprachbund.cli", "project",
             "--config", cfg, *flags],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "ws" / "projection.svg").exists()


class TestAllChecksProjectSettingsFirst:
    """`all` rejects project settings that need no data before any stage
    writes to the workspace."""

    @pytest.mark.parametrize("overrides, flags, message", [
        ({}, ["--point-radius", "-3"], "point_radius must be positive"),
        ({}, ["--point-radius", "inf"],
         "point_radius must be positive and finite, got inf"),
        ({}, ["--font-size", "0"], "font_size must be positive"),
        ({"color_by": "nope"}, [], "unknown color_by attribute 'nope'"),
        ({"tsne": {"perplexity": 2.0, "init_scale": 0}}, [],
         "tsne.init_scale must be > 0, got 0"),
    ], ids=["point-radius", "point-radius-inf", "font-size", "color-by",
            "tsne-init-scale"])
    def test_all_exits_2_with_no_artifact(self, demo_config, tmp_path, capsys,
                                          overrides, flags, message):
        cfg = str(demo_config(**overrides))
        assert cli.main(["all", "--config", cfg, *flags]) == 2
        assert message in capsys.readouterr().err
        ws = tmp_path / "ws"
        assert not ws.exists() or \
            [p.name for p in ws.iterdir()] in ([], ["run.log"])


class TestUnreadableInputs:
    """An input file that is not UTF-8, or a directory where a file should
    be, exits 2 with a message naming it, never with a traceback."""

    STAGE = {"config": "sample", "registry": "sample",
             "lexical_table": "analyze", "matrix": "cluster",
             "embeddings": "embed", "simmat.json": "cluster"}
    NOT_UTF8 = {
        "embeddings": b'{"v": 1, "dim": 2}\n{"lang": "caf\xe9", "id": 0, '
                      b'"vec": [1.0, 2.0]}\n',
    }

    @pytest.mark.parametrize("damage", ["not utf-8", "directory"])
    @pytest.mark.parametrize("which", list(STAGE))
    def test_exits_2_naming_the_path(self, tmp_path, which, damage):
        ws = tmp_path / "ws"
        ws.mkdir()
        bad = ws / "simmat.json" if which == "simmat.json" else tmp_path / "bad"
        cfg = {"corpus_root": str(data.path("demo/corpus")),
               "embeddings": str(data.path("demo/embeddings.jsonl")),
               "out": str(ws)}
        if which == "lexical_table":
            cfg["matrix"] = str(data.path("embedding_similarity.json"))
        if which in ("registry", "lexical_table", "matrix", "embeddings"):
            cfg[which] = str(bad)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        if which == "embeddings":
            assert cli.main(["sample", "--config", str(config)]) == 0
        if which == "config":
            bad = config
            bad.unlink()
        if damage == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(self.NOT_UTF8.get(
                which, b'{"v": 1, "name": "caf\xe9"}\n'))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sprachbund.cli", self.STAGE[which],
             "--config", str(config)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert str(bad) in proc.stderr
        assert "Traceback" not in proc.stderr
        if damage == "not utf-8":
            assert "invalid UTF-8" in proc.stderr


class TestEmbedFromService:
    def test_endpoint_pipeline(self, tmp_path, embedding_server, monkeypatch):
        server = embedding_server(dim=6)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for code in ("en", "fr", "de", "ru"):
            (corpus / f"{code}.txt").write_text(
                "\n".join(f"{code} sentence {i}" for i in range(5)) + "\n",
                encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus_root": str(corpus),
            "endpoint": server.endpoint,
            "batch": 2,
            "out": str(tmp_path / "ws"),
        }), encoding="utf-8")
        for stage in ("sample", "embed", "repr", "simmat"):
            assert cli.main([stage, "--config", str(cfg)]) == 0
        index = json.loads((tmp_path / "ws" / "embeddings.json").read_text())
        assert index["dim"] == 6
        assert sum(len(e["ids"]) for e in index["languages"]) == 20
        assert np.load(tmp_path / "ws" / "embeddings.npy").shape == (20, 6)
        assert server.embed_requests == 12  # ceil(5/2) batches x 4 languages
        assert server.info_requests == 1
        log = (tmp_path / "ws" / "run.log").read_text()
        assert "embed http_requests=13 http_retries=0 vectors=20 " in log

    def test_client_error_exits_3(self, demo_config, embedding_server,
                                  capsys):
        server = embedding_server(dim=4, fail_posts=1, fail_status=403)
        cfg = str(demo_config(embeddings=None, endpoint=server.endpoint))
        assert cli.main(["sample", "--config", cfg]) == 0
        assert cli.main(["embed", "--config", cfg]) == 3
        assert "answered 403" in capsys.readouterr().err

    def test_auth_token_env_var(self, tmp_path, embedding_server, monkeypatch):
        server = embedding_server(dim=3)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "en.txt").write_text("hello\nworld\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus_root": str(corpus),
            "endpoint": server.endpoint,
            "languages": ["en"],
            "out": str(tmp_path / "ws"),
        }), encoding="utf-8")
        monkeypatch.setenv(cli.AUTH_TOKEN_ENV, "hunter2")
        assert cli.main(["sample", "--config", str(cfg)]) == 0
        assert cli.main(["embed", "--config", str(cfg)]) == 0
        assert server.auth_headers == ["Bearer hunter2"]
