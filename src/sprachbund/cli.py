"""Pipeline orchestration over a directory of flat JSON artifacts.

Subcommands run the stages sample -> embed -> repr -> simmat -> cluster ->
partition -> analyze -> project individually or chained (``all``). Every
stage reads the previous stage's artifacts from the workspace, writes its own
versioned artifacts (JSON documents, or a ``.npy`` matrix with a JSON index)
stamped with the digest of the effective config, and appends a line to the
run log. Under ``all`` there are two in-memory hand-offs instead of
re-parsing what a stage just wrote: ``embed`` takes the shards ``sample``
drew, and the stages after ``simmat`` take the matrix it built. With an
``endpoint``, ``sample`` also sends each language's batches to the
embedding service as soon as it is drawn; ``embed`` takes the vectors, or
raises the service's error, as if it had fetched them itself. Reruns with
identical inputs, config, and seed reproduce identical artifact bytes;
timestamps live only in the log.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 external-service error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import typing
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import build_report
from .cluster import Dendrogram, agglomerate, cut
from .corpus import CorpusShard, SamplingPolicy, corpus_stats, ingest_shard, sample
from .embedding import (FetchStats, SentenceEmbeddingSet, centroid_all,
                        fetch_embeddings, load_embeddings,
                        load_representations, write_embeddings,
                        write_representations)
from .errors import ServiceError, SprachbundError, UsageError, ValidationError
from .partition import sweep
from .projection import TsneParams, check_plot_settings, emit_plot, project
from .registry import (Registry, artifact_keys, bundled_lexical_table,
                       bundled_registry, load_json, load_lexical_table,
                       load_registry, read_json, replacing, write_json)
from .simmatrix import SimilarityMatrix, build_matrix, load_matrix

AUTH_TOKEN_ENV = "SPRACHBUND_TOKEN"

STAGE_ORDER = ("sample", "embed", "repr", "simmat", "cluster",
               "partition", "analyze", "project")


@dataclass
class PipelineConfig:
    corpus_root: str | None = None
    registry: str | None = None
    lexical_table: str | None = None
    matrix: str | None = None
    embeddings: str | None = None
    endpoint: str | None = None
    cap: int = 10000
    seed: int = 0
    k: int = 4
    sweep: list[int] | None = None
    batch: int = 32
    allow_missing: list[str] = field(default_factory=list)
    languages: list[str] | None = None
    color_by: str = "family"
    point_radius: float = 5.0
    font_size: int = 11
    tsne: dict = field(default_factory=dict)
    out: str | None = None

    def __post_init__(self):
        self._registry: Registry | None = None
        self._matrix: SimilarityMatrix | None = None
        self._shards: tuple[CorpusShard, ...] | None = None
        self._fetch: _Fetch | None = None

    def digest(self) -> str:
        """Digest of the semantic parameters (workspace location excluded)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name != "out"}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def workspace(self) -> Path:
        if not self.out:
            raise UsageError("no output directory: pass --out or set 'out' "
                             "in the config file")
        return Path(self.out)

    def load_registry(self) -> Registry:
        """The registry, read on the first call and kept: each stage of a
        run asks for it, and the run reads it once."""
        if self._registry is None:
            self._registry = (load_registry(self.registry) if self.registry
                              else bundled_registry())
        return self._registry

    def load_lexical_table(self):
        if self.lexical_table:
            return load_lexical_table(self.lexical_table)
        return bundled_lexical_table()

    def tsne_params(self) -> TsneParams:
        return TsneParams(**{"seed": self.seed, **self.tsne})


def _has_type(value, hint) -> bool:
    """Whether a parsed JSON value fits a config field's annotation; a
    bool is not a number, and an int is a float."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return type(value) is list and all(_has_type(v, args[0]) for v in value)
    if args:  # a union such as str | None
        return any(_has_type(value, h) for h in args)
    return type(value) in ((int, float) if hint is float else (hint,))


def _check_keys(path: str | Path, doc: dict, cls: type,
                prefix: str = "") -> None:
    """Every key of ``doc`` names a field of the dataclass ``cls`` and its
    value fits that field's annotation."""
    hints = typing.get_type_hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ValidationError(
            f"{path}: unknown config key(s): "
            f"{', '.join(prefix + key for key in sorted(unknown))}")
    for key, value in doc.items():
        if not _has_type(value, hints[key]):
            raise ValidationError(
                f"{path}: config key {prefix + key!r} must be "
                f"{cls.__dataclass_fields__[key].type}, "
                f"got {json.dumps(value)}")


def load_config(path: str | Path) -> dict:
    doc = read_json(path)
    doc.pop("v", None)
    _check_keys(path, doc, PipelineConfig)
    _check_keys(path, doc.get("tsne", {}), TsneParams, "tsne.")
    return doc


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Config file first, then flags override."""
    cfg = PipelineConfig()
    if args.config:
        cfg = replace(cfg, **load_config(args.config))
    cfg = replace(cfg, **{name: getattr(args, name)
                          for name in PipelineConfig.__dataclass_fields__
                          if getattr(args, name, None) is not None})
    if cfg.embeddings and cfg.endpoint:
        raise UsageError("choose one embedding source: --embeddings or "
                         "--endpoint, not both")
    return cfg


# ---------------------------------------------------------------------------
# workspace plumbing

def _write_json(path: Path, payload: dict, digest: str) -> None:
    write_json(path, {**payload, "v": 1, "config_digest": digest})


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise ValidationError(
            f"missing input {path.name}; run `sprachbund {produced_by}` first")
    return path


def _read_artifact(path: Path, produced_by: str) -> dict:
    return load_json(_require(path, produced_by))


def _file_digest(path: Path) -> str:
    """SHA-256 prefix of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def _store_bytes(store: Path) -> int:
    """Bytes of a ``.npy`` store and its ``.json`` index."""
    return sum(p.stat().st_size for p in (store, store.with_suffix(".json")))


def _log(workspace: Path, message: str) -> None:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with (workspace / "run.log").open("a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {message}\n")


class _WorkspaceLock:
    """Advisory single-process lock: a .lock file holding the owner's pid.

    A lock whose pid names no running process was left by a crash and is
    reclaimed. An empty or non-numeric lock is one being written right now,
    so it is refused like a live one.
    """

    def __init__(self, workspace: Path):
        self.path = workspace / ".lock"

    def __enter__(self):
        for attempt in range(2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                dead_pid = self._dead_owner()
                if attempt or dead_pid is None:
                    raise ValidationError(
                        f"workspace {self.path.parent} is locked by another "
                        f"process (remove {self.path.name} if that process "
                        f"is gone)")
                self.path.unlink(missing_ok=True)
                _log(self.path.parent,
                     f"reclaimed {self.path.name} of exited pid {dead_pid}")
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return self

    def _dead_owner(self) -> int | None:
        """The pid in the lock file if no process with that pid exists."""
        try:
            pid = int(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if pid <= 0:
            return None
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except (PermissionError, OverflowError):
            pass  # alive under another user, or not a pid at all
        return None

    def __exit__(self, *exc):
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        return False


# ---------------------------------------------------------------------------
# stages

@dataclass
class _Fetch:
    """Under `all` with an endpoint, `sample` runs the embed stage's fetch
    while it draws the shards; this holds the outcome for `embed`."""

    stats: FetchStats = field(default_factory=FetchStats)
    sets: list[SentenceEmbeddingSet] | None = None
    error: SprachbundError | None = None


def stage_sample(cfg: PipelineConfig, ws: Path) -> None:
    if not cfg.corpus_root:
        raise ValidationError("sample needs a corpus root: set 'corpus_root' "
                              "in the config file")
    root = Path(cfg.corpus_root)
    registry = cfg.load_registry()
    if cfg.languages:
        codes = list(cfg.languages)
        missing = [c for c in codes if not (root / f"{c}.txt").exists()]
        if missing:
            raise ValidationError(
                f"no corpus file for configured language(s): "
                f"{', '.join(sorted(missing))}")
    else:
        codes = sorted(c for c in registry.codes if (root / f"{c}.txt").exists())
    if not codes:
        raise ValidationError(f"no <code>.txt corpus files found in {root}")
    policy = SamplingPolicy(cap=cfg.cap, seed=cfg.seed)
    cfg._shards = None

    def draw():
        """Each language's shard as it is drawn; then the artifact and the
        log line, and the shards kept for `embed`."""
        shards = []
        for c in codes:
            shards.append(sample(ingest_shard(root / f"{c}.txt", c, registry),
                                 policy))
            yield shards[-1]
        _write_json(ws / "sampled.json", {
            "policy": {"cap": policy.cap, "seed": policy.seed},
            "shards": [
                {"language": s.language,
                 "sentences": [[i, t] for i, t in s.sentences]}
                for s in shards
            ],
        }, cfg.digest())
        total = corpus_stats(shards)["total"]
        _log(ws, f"sample languages={len(shards)} "
                 f"sentences={total['sentences']} bytes={total['bytes']}")
        cfg._shards = tuple(shards)

    if cfg._fetch is None:
        for _ in draw():
            pass
        return
    try:  # the fetch drives `draw` and sends each shard's batches at once
        cfg._fetch.sets = fetch_embeddings(
            cfg.endpoint, draw(), cfg.batch,
            auth_token=os.environ.get(AUTH_TOKEN_ENV), stats=cfg._fetch.stats)
    except SprachbundError as exc:
        if cfg._shards is None:  # sampling failed: that error wins
            raise
        cfg._fetch.error = exc  # the embed stage's to raise


def _sampled_shards(ws: Path) -> list[CorpusShard]:
    path = ws / "sampled.json"
    doc = _read_artifact(path, "sample")
    with artifact_keys(path):
        return [
            CorpusShard(language=s["language"],
                        sentences=tuple((int(i), t) for i, t in s["sentences"]))
            for s in doc["shards"]
        ]


def stage_embed(cfg: PipelineConfig, ws: Path) -> None:
    shards = cfg._shards if cfg._shards is not None else _sampled_shards(ws)
    cfg._shards = None  # handed over: no later stage reads them
    if bool(cfg.embeddings) == bool(cfg.endpoint):
        raise ValidationError("embed needs exactly one source: --embeddings "
                              "<file> or --endpoint <url>")
    sets: list[SentenceEmbeddingSet] = []
    stats = FetchStats()
    if cfg.embeddings:
        available = {s.language: s for s in load_embeddings(cfg.embeddings)}
        for shard in shards:
            source = available.get(shard.language)
            if source is None:
                raise ValidationError(
                    f"{cfg.embeddings} has no vectors for language "
                    f"{shard.language!r}")
            by_id = {sid: row for sid, row in zip(source.ids, source.matrix)}
            missing = [i for i, _ in shard.sentences if i not in by_id]
            if missing:
                raise ValidationError(
                    f"{cfg.embeddings} lacks vectors for {shard.language!r} "
                    f"sentence ids {missing}")
            ids = tuple(i for i, _ in shard.sentences)
            sets.append(SentenceEmbeddingSet(
                language=shard.language, dim=source.dim, ids=ids,
                matrix=np.vstack([by_id[i] for i in ids])))
    elif cfg._fetch is not None:  # fetched while `sample` drew the shards
        fetch, cfg._fetch = cfg._fetch, None  # kept no longer than the sets
        stats = fetch.stats
        if fetch.error is not None:
            raise fetch.error
        sets = fetch.sets
    else:
        sets = fetch_embeddings(cfg.endpoint, shards, cfg.batch,
                                auth_token=os.environ.get(AUTH_TOKEN_ENV),
                                stats=stats)
    store = ws / "embeddings.npy"
    write_embeddings(sets, store, extra_header={"config_digest": cfg.digest()})
    _log(ws, f"embed http_requests={stats.requests} "
             f"http_retries={stats.retries} "
             f"vectors={sum(len(s) for s in sets)} "
             f"bytes_written={_store_bytes(store)}")


def stage_repr(cfg: PipelineConfig, ws: Path) -> None:
    store = _require(ws / "embeddings.npy", "embed")
    reps = centroid_all(load_embeddings(store))
    out = ws / "representations.npy"
    write_representations(reps, out, extra_header={"config_digest": cfg.digest()})
    _log(ws, f"repr languages={len(reps)} dim={reps[0].dim if reps else 0} "
             f"bytes_written={_store_bytes(out)}")


def _keep(cfg: PipelineConfig, matrix: SimilarityMatrix) -> SimilarityMatrix:
    """Keep ``matrix`` for the later stages of this run, read-only, so a
    stage that wrote into it would raise instead of changing what the next
    stage sees."""
    matrix.values.setflags(write=False)
    cfg._matrix = matrix
    return matrix


def stage_simmat(cfg: PipelineConfig, ws: Path) -> None:
    reps = load_representations(_require(ws / "representations.npy", "repr"))
    matrix = build_matrix(reps)
    path = ws / "simmat.json"
    _write_json(path, matrix.to_json(), cfg.digest())
    if not cfg.matrix:  # with a `matrix` file, the later stages read that
        _keep(cfg, matrix)
    _log(ws, f"simmat languages={len(matrix)} "
             f"bytes_written={path.stat().st_size}")


def _load_simmat(cfg: PipelineConfig, ws: Path) -> SimilarityMatrix:
    """The run's similarity matrix: the `matrix` file if the config names
    one, else the workspace's; read once per run and kept."""
    if cfg._matrix is not None:
        return cfg._matrix
    if cfg.matrix:
        return _keep(cfg, load_matrix(cfg.matrix))
    path = ws / "simmat.json"
    return _keep(cfg, SimilarityMatrix.from_json(_read_artifact(path, "simmat"),
                                                 source=path))


def _load_dendrogram(ws: Path, matrix: SimilarityMatrix) -> Dendrogram:
    path = ws / "dendrogram.json"
    doc = _read_artifact(path, "cluster")
    with artifact_keys(path):
        dendrogram = Dendrogram.from_json(doc)
    if dendrogram.languages != matrix.languages:
        raise ValidationError(
            f"{path}: its languages differ from the similarity matrix's; "
            f"run `sprachbund cluster` again")
    return dendrogram


def stage_cluster(cfg: PipelineConfig, ws: Path) -> None:
    dendrogram = agglomerate(_load_simmat(cfg, ws))
    _write_json(ws / "dendrogram.json", dendrogram.to_json(), cfg.digest())


def _shard_index(cfg: PipelineConfig, codes) -> dict[str, list[str]]:
    root = Path(cfg.corpus_root) if cfg.corpus_root else None
    index: dict[str, list[str]] = {}
    for code in codes:
        if root is not None and (root / f"{code}.txt").exists():
            index[code] = [f"{code}.txt"]
    return index


def stage_partition(cfg: PipelineConfig, ws: Path) -> None:
    matrix = _load_simmat(cfg, ws)
    source_digest = None
    if cfg.embeddings and Path(cfg.embeddings).exists():
        source_digest = _file_digest(Path(cfg.embeddings))
    provenance = {
        "seed": cfg.seed,
        "embedding_source": (f"file:{cfg.embeddings}" if cfg.embeddings
                             else f"endpoint:{cfg.endpoint}" if cfg.endpoint
                             else "unspecified"),
        "embedding_source_digest": source_digest,
        "corpus_root": cfg.corpus_root,
    }
    manifests = sweep(_load_dendrogram(ws, matrix), matrix,
                      cfg.sweep or [cfg.k], _shard_index(cfg, matrix.languages),
                      allow_missing=cfg.allow_missing, provenance=provenance)
    for manifest in manifests:
        _write_json(ws / f"manifest_k{manifest.k}.json", manifest.to_json(),
                    cfg.digest())


def stage_analyze(cfg: PipelineConfig, ws: Path) -> None:
    matrix = _load_simmat(cfg, ws)
    registry = cfg.load_registry()
    table = cfg.load_lexical_table()
    assignment = None
    if (ws / "dendrogram.json").exists():
        assignment = cut(_load_dendrogram(ws, matrix), cfg.k)
    features = tuple(
        f for f in registry.feature_names
        if any(f in r.syntax for r in registry))
    report = build_report(matrix, table, registry, assignment, features)
    _write_json(ws / "analysis.json", {"report": report.to_json()}, cfg.digest())
    sys.stdout.write(report.format_table())


def stage_project(cfg: PipelineConfig, ws: Path) -> None:
    matrix = _load_simmat(cfg, ws)
    registry = cfg.load_registry()
    projection = project(matrix, cfg.tsne_params())
    svg, data_doc = emit_plot(projection, registry, cfg.color_by,
                              point_radius=cfg.point_radius,
                              font_size=cfg.font_size)
    _write_json(ws / "projection.json", data_doc, cfg.digest())
    with replacing(ws / "projection.svg") as fh:
        fh.write(f"<!-- v=1 config_digest={cfg.digest()} -->\n" + svg)
    iterations, final_kl = projection.fit.kl_trace[-1]
    _log(ws, f"project iterations={iterations} final_kl={final_kl:.6g} "
             f"unconverged_rows={projection.fit.unconverged_rows}")


_STAGES = {
    "sample": stage_sample,
    "embed": stage_embed,
    "repr": stage_repr,
    "simmat": stage_simmat,
    "cluster": stage_cluster,
    "partition": stage_partition,
    "analyze": stage_analyze,
    "project": stage_project,
}


def run(subcommand: str, cfg: PipelineConfig) -> None:
    ws = cfg.workspace()
    stages = STAGE_ORDER if subcommand == "all" else (subcommand,)
    if "project" in stages:  # settings that fail without data fail first
        cfg.tsne_params()
        check_plot_settings(cfg.load_registry(), cfg.color_by,
                            cfg.point_radius, cfg.font_size)
    try:
        ws.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"output directory {ws} is not writable: {exc}")
    cfg._fetch = (_Fetch() if subcommand == "all" and cfg.endpoint
                  and not cfg.embeddings else None)
    with _WorkspaceLock(ws):
        for stage in stages:
            try:
                _STAGES[stage](cfg, ws)
            except SprachbundError as exc:
                _log(ws, f"{stage} digest={cfg.digest()} status=error: {exc}")
                raise
            _log(ws, f"{stage} digest={cfg.digest()} status=ok")


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="sprachbund", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, help_text in [
        ("sample", "ingest corpus shards and apply capped random sampling"),
        ("embed", "obtain sentence embeddings from a file or service"),
        ("repr", "reduce each language's embeddings to its centroid"),
        ("simmat", "build the cosine similarity matrix"),
        ("cluster", "agglomerate into a dendrogram"),
        ("partition", "emit corpus-partition manifest(s) with pivots"),
        ("analyze", "lexical correlation, family purity, syntax agreement"),
        ("project", "t-SNE to 2-D and render the labeled scatter plot"),
        ("all", "run every stage in order"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--k", type=int, help="number of clusters")
        p.add_argument("--sweep", type=_int_list,
                       help="comma-separated K list, e.g. 1,2,4,8")
        p.add_argument("--cap", type=int, help="max sentences per language")
        p.add_argument("--seed", type=int, help="seed for sampling/clustering")
        p.add_argument("--endpoint", help="embedding service base URL")
        p.add_argument("--embeddings", help="precomputed embeddings file")
        p.add_argument("--out", help="workspace directory for artifacts")
        p.add_argument("--allow-missing", dest="allow_missing",
                       type=lambda text: [c for c in text.split(",") if c],
                       help="codes allowed to lack corpus shards")
        p.add_argument("--point-radius", dest="point_radius", type=float,
                       help="plot point radius")
        p.add_argument("--font-size", dest="font_size", type=int,
                       help="plot label font size")
        p.add_argument("--json-errors", dest="json_errors", action="store_true",
                       help="emit machine-readable error JSON on stderr")
    return parser


def _emit_error(exc: SprachbundError, kind: str, json_errors: bool) -> None:
    if json_errors:
        payload = {"error": kind, "message": str(exc)}
        missing = getattr(exc, "missing_ids", None)
        if missing is not None:
            payload["missing_ids"] = missing
            payload["language"] = getattr(exc, "language", None)
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"sprachbund: error: {exc}\n")


def main(argv=None) -> int:
    parser = build_parser()
    raw_args = list(argv) if argv is not None else sys.argv[1:]
    json_errors = "--json-errors" in raw_args
    try:
        args = parser.parse_args(argv)
        if not args.subcommand:
            raise UsageError("a subcommand is required "
                             f"(one of: {', '.join(STAGE_ORDER)}, all)")
        json_errors = getattr(args, "json_errors", json_errors)
        cfg = resolve_config(args)
        run(args.subcommand, cfg)
        return 0
    except UsageError as exc:
        _emit_error(exc, "usage", json_errors)
        return 1
    except ValidationError as exc:
        _emit_error(exc, "validation", json_errors)
        return 2
    except ServiceError as exc:
        _emit_error(exc, "service", json_errors)
        return 3


if __name__ == "__main__":
    sys.exit(main())
