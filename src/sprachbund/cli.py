"""Pipeline orchestration over a directory of flat JSON artifacts.

Each subcommand runs one stage, and ``all`` runs every stage in order.
:data:`STAGES` declares each stage once: its config keys, the workspace
artifacts it reads and those it writes. A stage reads earlier stages'
artifacts from the workspace and writes its own versioned artifacts (JSON
documents, or a ``.npy`` matrix with a JSON index) stamped with the digest
of the effective config; the run loop appends its counts and status to the
run log. Under ``all`` there are two in-memory hand-offs instead of
re-parsing what a stage just wrote: ``embed`` takes the shards ``sample``
drew, and later stages take the matrix ``simmat`` built or imported. With an
``endpoint``, ``sample`` also sends each language's batches to the
embedding service as soon as it is drawn, and the vectors go straight into
the temporary file of ``embed``'s store; ``embed`` finishes that store, or
raises the service's error, as if it had fetched them itself. Reruns with
identical inputs, config, and seed reproduce identical artifact bytes;
timestamps live only in the log.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 external-service error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Annotated, Callable

from . import __version__
from .errors import ServiceError, SprachbundError, UsageError, ValidationError

# The names the stages use, by home module. `_bind` imports them once a
# command reads its config, before the first stage runs, and `__getattr__`
# on their first access from outside; `--version`, `--help` and a usage
# error load no numpy and no stage module.
_DEFERRED = {
    "analysis": ("build_report",),
    "cluster": ("Dendrogram", "agglomerate", "cut"),
    "corpus": ("CorpusShard", "SamplingPolicy", "corpus_stats",
               "ingest_shard", "sample"),
    "embedding": ("FetchStats", "StoreWriter", "StoredEmbeddingSet",
                  "centroid_all", "fetch_embeddings", "load_embeddings",
                  "load_representations", "write_embeddings",
                  "write_representations"),
    "partition": ("sweep",),
    "projection": ("TsneParams", "check_plot_settings", "check_tsne_bounds",
                   "emit_plot", "project"),
    "registry": ("Registry", "bundled_lexical_table", "bundled_registry",
                 "check_document", "load_json", "load_lexical_table",
                 "load_registry", "naming", "read_json", "replacing",
                 "write_json"),
    "simmatrix": ("SimilarityMatrix", "build_matrix", "load_matrix"),
}


def _bind() -> None:
    """Import the stage modules and bind their names here. A name already
    bound is kept, so a caller's replacement of it stays in force."""
    for module, names in _DEFERRED.items():
        home = importlib.import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(home, name))


def __getattr__(name: str):
    if any(name in names for names in _DEFERRED.values()):
        _bind()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


AUTH_TOKEN_ENV = "SPRACHBUND_TOKEN"


@dataclass
class PipelineConfig:
    """The resolved config; its annotations declare the file and flags."""

    corpus_root: str | None = None
    registry: str | None = None
    lexical_table: str | None = None
    matrix: str | None = None
    embeddings: str | None = None
    endpoint: str | None = None
    cap: Annotated[int, ">= 1"] = 10000
    seed: Annotated[int, "in [0, 2**64)"] = 0
    k: Annotated[int, ">= 1"] = 4
    sweep: list[Annotated[int, ">= 1"]] | None = None
    batch: Annotated[int, ">= 1"] = 32
    allow_missing: list[str] = field(default_factory=list)
    languages: Annotated[list[str], "distinct"] | None = None
    color_by: str = "family"
    point_radius: Annotated[float, "> 0"] = 5.0
    font_size: Annotated[int, "> 0"] = 11
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
        run asks for it, and the run reads it once. Each call reads the
        ``registry`` field, so a stage's view checks it every time."""
        path = self.registry
        if self._registry is None:
            self._registry = (load_registry(path) if path
                              else bundled_registry())
        return self._registry

    def load_lexical_table(self):
        return (load_lexical_table(self.lexical_table) if self.lexical_table
                else bundled_lexical_table())

    def tsne_params(self) -> TsneParams:
        return TsneParams(**{"seed": self.seed, **self.tsne})


def load_config(path: str | Path) -> dict:
    """The config file's keys, declared by :class:`PipelineConfig`."""
    _bind()
    doc = read_json(path)
    doc.pop("v", None)
    check_document(doc, PipelineConfig, path)
    check_document(doc.get("tsne", {}), TsneParams, path, "tsne")
    return doc


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Config file first, then flags override (a ``command line`` doc)."""
    _bind()
    cfg = PipelineConfig()
    if args.config:
        cfg = replace(cfg, **load_config(args.config))
    flags = {name: getattr(args, name)
             for name in PipelineConfig.__dataclass_fields__
             if getattr(args, name, None) is not None}
    check_document(flags, PipelineConfig, "command line")
    cfg = replace(cfg, **flags)
    if cfg.embeddings and cfg.endpoint:
        raise UsageError("choose one embedding source: --embeddings or "
                         "--endpoint, not both")
    return cfg


# ---------------------------------------------------------------------------
# workspace plumbing

def _write_json(path: Path, payload: dict, digest: str) -> None:
    write_json(path, {**payload, "v": 1, "config_digest": digest})


def _producer(artifact: str) -> str:
    """The name of the stage that writes ``artifact``."""
    return next(s.name for s in STAGES if artifact in s.writes)


def _require(ws: Path, *artifacts: str) -> Path:
    """The path of the first of ``artifacts``, once each is in ``ws``; a
    missing one names the stage that writes it."""
    for name in artifacts:
        if not (ws / name).exists():
            raise ValidationError(f"missing input {name}; run "
                                  f"`sprachbund {_producer(name)}` first")
    return ws / artifacts[0]


def _file_digest(path: Path) -> str:
    """SHA-256 prefix of a file, read through one reused 64 KiB buffer."""
    digest = hashlib.sha256()
    buffer = memoryview(bytearray(1 << 16))
    with path.open("rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(buffer[:size])
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
        self.path.unlink(missing_ok=True)
        return False


# ---------------------------------------------------------------------------
# stages

@dataclass
class _Fetch:
    """The embed stage's fetch from the service, whose rows go straight into
    the temporary file of the store `writer`. Under `all`, `sample` runs it
    while it draws the shards, and this holds the outcome for `embed`."""

    writer: StoreWriter
    endpoint: str
    batch: int
    auth_token: str | None = field(
        default_factory=lambda: os.environ.get(AUTH_TOKEN_ENV))
    stats: FetchStats = field(default_factory=lambda: FetchStats())
    sets: list[StoredEmbeddingSet] | None = None
    error: SprachbundError | None = None

    def run(self, shards) -> None:
        self.sets = fetch_embeddings(
            self.endpoint, shards, self.batch, auth_token=self.auth_token,
            stats=self.stats, writer=self.writer)


def stage_sample(cfg: PipelineConfig, ws: Path) -> dict:
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
        """Each language's shard as it is drawn; then the artifact, and the
        shards kept for `embed`."""
        shards = []
        for c in codes:
            path = root / f"{c}.txt"
            shard = ingest_shard(path, c, registry)
            if not len(shard):
                raise ValidationError(
                    f"{path}: no sentences (the file is empty or has only "
                    f"blank lines)")
            shards.append(sample(shard, policy))
            yield shards[-1]
        _write_json(ws / "sampled.json", {
            "policy": {"cap": policy.cap, "seed": policy.seed},
            "shards": [
                {"language": s.language,
                 "sentences": [[i, t] for i, t in s.sentences]}
                for s in shards
            ],
        }, cfg.digest())
        cfg._shards = tuple(shards)

    if cfg._fetch is None:
        for _ in draw():
            pass
    else:
        try:  # the fetch drives `draw` and sends each shard's batches at once
            cfg._fetch.run(draw())
        except SprachbundError as exc:
            if cfg._shards is None:  # sampling failed: that error wins
                raise
            cfg._fetch.error = exc  # the embed stage's to raise
    total = corpus_stats(cfg._shards)["total"]
    return {"languages": len(cfg._shards), "sentences": total["sentences"],
            "bytes": total["bytes"]}


def _sampled_shards(ws: Path) -> list[CorpusShard]:
    path = _require(ws, "sampled.json")
    doc = load_json(path, {"shards": list[CorpusShard.document]})
    with naming(path):
        return [CorpusShard(s["language"], tuple(map(tuple, s["sentences"])))
                for s in doc["shards"]]


def stage_embed(cfg: PipelineConfig, ws: Path) -> dict:
    shards = cfg._shards if cfg._shards is not None else _sampled_shards(ws)
    cfg._shards = None  # handed over: no later stage reads them
    if bool(cfg.embeddings) == bool(cfg.endpoint):
        raise ValidationError("embed needs exactly one source: --embeddings "
                              "<file> or --endpoint <url>")
    store = ws / "embeddings.npy"
    header = {"config_digest": cfg.digest()}
    if cfg.embeddings:
        with StoreWriter(store) as writer:  # removes an unfinished store
            sets = load_embeddings(cfg.embeddings, shards, writer=writer)
            write_embeddings(sets, store, extra_header=header, writer=writer)
        stats = FetchStats()
    else:
        # fetched while `sample` drew the shards, or by a lone `embed` now
        fetch, cfg._fetch = cfg._fetch, None
        lone = fetch is None
        if lone:
            fetch = _Fetch(StoreWriter(store), cfg.endpoint, cfg.batch)
        with fetch.writer:  # removes the file of a store left unfinished
            if lone:
                fetch.run(shards)
            if fetch.error is not None:
                raise fetch.error
            write_embeddings(fetch.sets, store, extra_header=header,
                             writer=fetch.writer)
        sets, stats = fetch.sets, fetch.stats
    return {"http_requests": stats.requests, "http_retries": stats.retries,
            "vectors": sum(len(s) for s in sets),
            "bytes_written": _store_bytes(store)}


def stage_repr(cfg: PipelineConfig, ws: Path) -> dict:
    store = _require(ws, "embeddings.npy", "embeddings.json")
    reps = centroid_all(load_embeddings(store))
    out = ws / "representations.npy"
    write_representations(reps, out, extra_header={"config_digest": cfg.digest()})
    return {"languages": len(reps), "dim": reps[0].dim if reps else 0,
            "bytes_written": _store_bytes(out)}


def _keep(cfg: PipelineConfig, matrix: SimilarityMatrix) -> SimilarityMatrix:
    """Keep ``matrix`` for the later stages of this run, read-only, so a
    stage that wrote into it would raise instead of changing what the next
    stage sees."""
    matrix.values.setflags(write=False)
    cfg._matrix = matrix
    return matrix


def stage_simmat(cfg: PipelineConfig, ws: Path) -> dict:
    if cfg.matrix:  # imported in place of the representations' matrix
        matrix = load_matrix(cfg.matrix)
    else:
        matrix = build_matrix(load_representations(
            _require(ws, "representations.npy", "representations.json")))
    path = ws / "simmat.json"
    _write_json(path, _keep(cfg, matrix).to_json(), cfg.digest())
    return {"languages": len(matrix), "bytes_written": path.stat().st_size}


def _load_simmat(cfg: PipelineConfig, ws: Path) -> SimilarityMatrix:
    """The matrix `simmat` kept in this run, or else read and kept now."""
    if cfg._matrix is not None:
        return cfg._matrix
    path = _require(ws, "simmat.json")
    doc = load_json(path, SimilarityMatrix.document)
    return _keep(cfg, SimilarityMatrix.from_json(doc, source=path))


def _load_dendrogram(ws: Path, matrix: SimilarityMatrix) -> Dendrogram:
    path = _require(ws, "dendrogram.json")
    dendrogram = Dendrogram.from_json(load_json(path), path)
    if dendrogram.languages != matrix.languages:
        raise ValidationError(
            f"{path}: its languages differ from the similarity matrix's; "
            f"run `sprachbund {_producer(path.name)}` again")
    return dendrogram


def stage_cluster(cfg: PipelineConfig, ws: Path) -> None:
    dendrogram = agglomerate(_load_simmat(cfg, ws))
    _write_json(ws / "dendrogram.json", dendrogram.to_json(), cfg.digest())


def _shard_index(cfg: PipelineConfig, codes) -> dict[str, list[str]]:
    root = Path(cfg.corpus_root) if cfg.corpus_root else None
    return {code: [f"{code}.txt"] for code in codes
            if root is not None and (root / f"{code}.txt").exists()}


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


def stage_project(cfg: PipelineConfig, ws: Path) -> dict:
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
    return {"iterations": iterations, "final_kl": final_kl,
            "unconverged_rows": projection.fit.unconverged_rows}


@dataclass(frozen=True)
class Stage:
    """``fn(cfg, ws)`` runs the stage, reading only the config fields
    ``keys``, and returns its counts for the run log, or None. ``reads`` are
    the workspace artifacts it needs and ``writes`` those it writes, where
    ``manifest_k<K>.json`` stands for one file per K."""

    name: str
    fn: Callable[[PipelineConfig, Path], dict | None]
    help: str
    keys: tuple[str, ...]
    reads: tuple[str, ...]
    writes: tuple[str, ...]


STAGES = (
    Stage("sample", stage_sample,
          "ingest corpus shards and apply capped random sampling",
          ("corpus_root", "languages", "cap", "seed", "registry"),
          (), ("sampled.json",)),
    Stage("embed", stage_embed,
          "obtain sentence embeddings from a file or service",
          ("embeddings", "endpoint", "batch"),
          ("sampled.json",), ("embeddings.npy", "embeddings.json")),
    Stage("repr", stage_repr,
          "reduce each language's embeddings to its centroid",
          (), ("embeddings.npy", "embeddings.json"),
          ("representations.npy", "representations.json")),
    Stage("simmat", stage_simmat, "build the cosine similarity matrix",
          ("matrix",), ("representations.npy", "representations.json"),
          ("simmat.json",)),
    Stage("cluster", stage_cluster, "agglomerate into a dendrogram",
          (), ("simmat.json",), ("dendrogram.json",)),
    Stage("partition", stage_partition,
          "emit corpus-partition manifest(s) with pivots",
          ("k", "sweep", "seed", "allow_missing", "corpus_root",
           "embeddings", "endpoint"),
          ("simmat.json", "dendrogram.json"), ("manifest_k<K>.json",)),
    Stage("analyze", stage_analyze,
          "lexical correlation, family purity, syntax agreement",
          ("k", "registry", "lexical_table"),
          ("simmat.json",), ("analysis.json",)),
    Stage("project", stage_project,
          "t-SNE to 2-D and render the labeled scatter plot",
          ("tsne", "seed", "registry", "color_by", "point_radius",
           "font_size"),
          ("simmat.json",), ("projection.json", "projection.svg")),
)
STAGE_ORDER = tuple(s.name for s in STAGES)
_STAGES = {s.name: s.fn for s in STAGES}  # `run` looks each up as it calls it


class _StageConfig:
    """One stage's view of the config: a field the stage does not declare
    raises AttributeError, within the config's methods too, as they run
    against the view. ``digest()`` is the run's, taken before any stage."""

    def __init__(self, cfg: PipelineConfig, stage: Stage, digest: str):
        vars(self).update(_cfg=cfg, _stage=stage, digest=lambda: digest)

    def __getattr__(self, name: str):
        if name in PipelineConfig.__dataclass_fields__ and \
                name not in self._stage.keys:
            raise AttributeError(
                f"stage {self._stage.name!r} reads config field {name!r}, "
                f"which its Stage record does not declare")
        method = getattr(PipelineConfig, name, None)
        return (method.__get__(self) if callable(method)
                else getattr(self._cfg, name))

    def __setattr__(self, name: str, value) -> None:
        setattr(self._cfg, name, value)  # the run's state: _shards, ...


def run(subcommand: str, cfg: PipelineConfig) -> None:
    _bind()
    ws = cfg.workspace()
    stages = [s for s in STAGES if subcommand in ("all", s.name)]
    if subcommand == "all" and cfg.matrix:  # `simmat` imports the matrix
        stages = stages[STAGE_ORDER.index("simmat"):]
    if any("color_by" in s.keys for s in stages):
        # a setting that fails without data fails first
        check_plot_settings(cfg.load_registry(), cfg.color_by)
    try:
        ws.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"output directory {ws} is not writable: {exc}")
    digest = cfg.digest()
    with _WorkspaceLock(ws):
        cfg._fetch = (_Fetch(StoreWriter(ws / "embeddings.npy"),
                             cfg.endpoint, cfg.batch)
                      if {"sample", "embed"} <= {s.name for s in stages}
                      and cfg.endpoint and not cfg.embeddings else None)
        try:
            for stage in stages:
                try:
                    counts = _STAGES[stage.name](
                        _StageConfig(cfg, stage, digest), ws)
                except SprachbundError as exc:
                    _log(ws, f"{stage.name} digest={digest} status=error: "
                             f"{exc}")
                    raise
                if counts:
                    _log(ws, " ".join([stage.name] + [
                        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in counts.items()]))
                _log(ws, f"{stage.name} digest={digest} status=ok")
                if stage.name == "simmat" and stages[-1].name == "project":
                    try:  # M is known: fail before a later stage writes
                        check_tsne_bounds(len(cfg._matrix),
                                          cfg.tsne_params().perplexity)
                    except ValidationError as exc:
                        _log(ws, f"project digest={digest} status=error: "
                                 f"{exc}")
                        raise
        finally:
            if cfg._fetch is not None:  # a stage before `embed` failed
                cfg._fetch.writer.discard()
                cfg._fetch = None


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
    for name, help_text in [(s.name, s.help) for s in STAGES] + [
            ("all", "run every stage in order")]:
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
