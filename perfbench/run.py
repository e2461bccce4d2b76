"""Benchmark ``sprachbund all`` end to end on seeded synthetic workloads.

    python3 perfbench/run.py --workload paper-http --seed 1 --seconds 45 --trace 0

Run it from the root of a sprachbund checkout; the package is taken from
``src`` whether or not it is installed. One run:

1. generates the workload's inputs from ``--seed`` (``generate.py``) and, for
   ``paper-http``, starts the stub embedding service (``stub.py``) in its own
   process before any timing;
2. with ``--trace 0``, runs a closed loop of one fresh
   ``sprachbund all --config <cfg>`` process at a time for ``--seconds``
   seconds, with one fresh ``python -m sprachbund.cli --version`` process
   (``setup_s``) before each. Each process is started by the small launcher
   ``spawn.py``, which takes its wall time and reads its own rusage
   (``os.wait4``) for CPU time and peak RSS, so neither the stub nor this
   process is counted. A fixed calibration workload (``calibrate``) runs in
   this process just before and just after each ``all``. ``all_cpu_ref`` is
   that ``all``'s CPU time scaled to a reference speed by the calibration's
   CPU time, and ``all_wall_ref`` its wall time with the on-CPU part scaled
   the same way; this cancels the drift of a shared host's speed over
   minutes;
3. with ``--trace 1``, runs the same untraced loop, then one ``all`` under
   ``trace_all.py`` and reports per-layer self times and counts, the raw
   ``all_wall_s``, ``all_cpu_s`` and ``calibration_s`` of the loop, and the
   ``-X importtime`` cost of numpy, requests and the package itself;
4. checks every workspace (``checks.py``): exit code, disjoint and exhaustive
   manifests, nesting across the sweep, brute-force pivots, the planted K=G
   cut, and byte-identical artifacts across the runs of the set and the
   traced run.

Earlier stdout lines give each metric's median, quartiles and sample count,
the error rate and the machine; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only if every run passed its checks. Nothing on the machine is changed to
measure: no cache dropping, no cgroup, kernel or frequency settings.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_workspace, digests, workspace_bytes
from generate import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
SETUP_STARTS = 7
CALIBRATION_ROUNDS = 3
# CPU seconds of `calibrate` at the reference speed, a round figure near its
# CPU time on a 2-vCPU Xeon VM. The *_ref metrics are seconds at that speed.
CALIBRATION_REF_S = 0.6
IMPORTTIME_STARTS = 5
DEADLINE_S = 170.0
STAGES = ("sample", "embed", "repr", "simmat", "cluster", "partition",
          "analyze", "project")
MIB = 1024 * 1024


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed calibration workload in this process.

    It mixes what the program's hot paths do: tuple-keyed dict reads and
    writes, scalar float arithmetic in Python, JSON encoding and decoding of
    embedding-sized float arrays, and small numpy array ops. It calls none of
    the program's code, so a change to the program cannot change it; it only
    tracks how fast the host runs such code at the moment. The garbage
    collector is off while it runs, so its time does not depend on how many
    objects this process holds. It takes 0.6-0.9 s on a 2-vCPU Xeon VM: a
    longer calibration averages out more of the host's second-to-second speed
    changes.
    """
    gc.disable()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(CALIBRATION_ROUNDS):
        n = 450
        table = {(i, j): (i * 31 + j * 17) % 97 / 97.0
                 for i in range(n) for j in range(i + 1, n)}
        best = None
        for i in range(1, n):
            for j in range(i + 1, n):
                key = (table[(i - 1, j)] + table[(i, j)] / (i + j), i, j)
                if best is None or key < best:
                    best = key
        del table
        total = 0.0
        for i in range(700_000):
            total += (i % 13) * 0.5 / (1 + (i & 7))
        rows = [[(i * 7 + j) % 1000 / 997.0 for j in range(768)]
                for i in range(64)]
        json.loads(json.dumps(rows))
        a = np.linspace(0.0, 1.0, 240 * 240).reshape(240, 240)
        for _step in range(150):
            b = a - a.mean(axis=0)
            a = a * 0.99 + (1.0 / (1.0 + b * b)).sum(axis=1, keepdims=True) * 1e-6
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    gc.enable()
    return wall, cpu


def at_reference_speed(wall: float, cpu: float, calibration_cpu: float) -> float:
    """Scale the time a process spent on CPU to the reference speed.

    Time off CPU (waiting for the embedding service, sleeping before a
    retry) does not depend on how fast the host is, so it is kept as
    measured; CPU time beyond the wall time (BLAS threads) is not counted.
    """
    on_cpu = min(cpu, wall)
    return wall - on_cpu + on_cpu * CALIBRATION_REF_S / calibration_cpu


def run_child(cmd: list[str], env: dict, timeout: float, stdout, stderr) -> Child:
    """Run one process to completion through ``spawn.py``; read its own rusage."""
    timeout = max(timeout, 1.0)
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-S", "-E", str(HERE / "spawn.py"), str(write_fd),
             str(timeout)] + cmd,
            env=env, stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
            pass_fds=(write_fd,))
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd) as result:
        watchdog = threading.Timer(timeout + 10, proc.terminate)
        watchdog.start()
        try:
            report = result.read()
            proc.wait()
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or not report:
        return Child(proc.returncode or 1, 0.0, 0.0, 0.0)
    done = json.loads(report)
    return Child(done["rc"], done["wall_s"], done["cpu_s"],
                 done["maxrss_kib"] / 1024)


class Stub:
    """The stub embedding service, in its own process."""

    def __init__(self, workload: str, seed: int, src: Path, work: Path):
        port_file = work / "stub.port"
        self.log = (work / "stub.log").open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--workload", workload,
             "--seed", str(seed), "--src", str(src),
             "--port-file", str(port_file)],
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log)
        limit = time.monotonic() + 60
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > limit:
                self.stop()
                raise RuntimeError(f"stub service did not start; see {self.log.name}")
            time.sleep(0.05)
        self.url = f"http://127.0.0.1:{port_file.read_text(encoding='utf-8')}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    return " | ".join(lines[-3:])


class Bench:
    def __init__(self, args, root: Path, work: Path):
        self.args = args
        self.src = root / "src"
        self.work = work
        self.spec = WORKLOADS[args.workload]
        self.start = time.monotonic()
        path = [str(self.src)] + ([os.environ["PYTHONPATH"]]
                                  if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.cli = [sys.executable, "-m", "sprachbund.cli"]
        self.stub: Stub | None = None
        self.runs: list[Child] = []
        self.calibration: list[tuple[float, float]] = []
        self.setup: list[float] = []
        self.workspace_mb: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.reference: dict[str, str] | None = None

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def prepare(self) -> None:
        endpoint = None
        if self.spec["source"] == "http":
            self.stub = Stub(self.args.workload, self.args.seed, self.src,
                             self.work)
            endpoint = self.stub.url
        self.plan = generate(self.args.workload, self.args.seed,
                             self.work / "inputs", self.src, endpoint)

    def fresh_starts(self, extra: list[str], count: int) -> list[tuple[Child, str]]:
        """``count`` fresh ``--version`` processes, with their stderr."""
        out = []
        for i in range(count):
            log = self.work / f"start{i}.err"
            with log.open("wb") as err:
                child = run_child(self.cli[:1] + extra + self.cli[1:] + ["--version"],
                                  self.env, self.remaining(), subprocess.DEVNULL, err)
            if child.rc != 0:
                raise RuntimeError(f"--version exited {child.rc}: {_stderr_tail(log)}")
            out.append((child, log.read_text(encoding="utf-8", errors="replace")))
        return out

    def run_all(self, name: str, cmd_prefix: list[str]) -> tuple[Child, Path]:
        ws = self.work / name
        log = self.work / f"{name}.err"
        cmd = cmd_prefix + ["all", "--config", str(self.plan["config"]),
                            "--out", str(ws)]
        with log.open("wb") as err:
            child = run_child(cmd, self.env, self.remaining(),
                              subprocess.DEVNULL, err)
        self.attempted += 1
        errors = []
        if child.rc != 0:
            errors.append(f"exit code {child.rc}: {_stderr_tail(log)}")
        else:
            try:
                errors += check_workspace(ws, self.plan["codes"],
                                          self.plan["groups"],
                                          self.spec["sweep"])
                found = digests(ws)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                errors.append(f"unreadable workspace: {exc!r}")
            else:
                if self.reference is None:
                    self.reference = found
                elif found != self.reference:
                    differ = sorted(n for n in set(found) | set(self.reference)
                                    if found.get(n) != self.reference.get(n))
                    errors.append(f"artifacts differ from the set's first "
                                  f"run: {', '.join(differ)}")
        if errors:
            self.failures.append(f"{name}: " + "; ".join(errors))
        return child, ws

    def loop(self) -> None:
        """Closed loop: one untraced `all` at a time for --seconds seconds.

        Each `all` follows one fresh `--version` start and sits between two
        calibrations, so set-up time and the host's speed are sampled across
        the whole run rather than at its start. Neighbouring `all` runs share
        the calibration between them.
        """
        calibrate()  # warm-up: the first call also grows this process's heap
        last = calibrate()
        began = time.perf_counter()
        while not self.runs or time.perf_counter() - began < self.args.seconds:
            if self.runs and self.remaining() < 3 * max(r.wall_s for r in self.runs):
                break
            self.setup += [c.wall_s for c, _ in self.fresh_starts([], 1)]
            child, ws = self.run_all(f"ws{len(self.runs)}", self.cli)
            now = calibrate()
            self.runs.append(child)
            self.calibration.append(((last[0] + now[0]) / 2,
                                     (last[1] + now[1]) / 2))
            last = now
            if ws.exists():
                self.workspace_mb.append(workspace_bytes(ws) / MIB)
                shutil.rmtree(ws)

    def raw_times(self) -> dict:
        return {
            "all_wall_s": ([r.wall_s for r in self.runs], "s"),
            "all_cpu_s": ([r.cpu_s for r in self.runs], "s"),
            "calibration_s": ([c[1] for c in self.calibration], "s"),
        }

    def end_to_end(self) -> dict:
        self.loop()
        missing = SETUP_STARTS - len(self.setup)
        if missing > 0:
            self.setup += [c.wall_s for c, _ in self.fresh_starts([], missing)]
        return {
            "all_wall_ref": ([at_reference_speed(r.wall_s, r.cpu_s, c[1])
                              for r, c in zip(self.runs, self.calibration)],
                             "ref-s"),
            "all_cpu_ref": ([r.cpu_s * CALIBRATION_REF_S / c[1]
                             for r, c in zip(self.runs, self.calibration)],
                            "ref-s"),
            "peak_rss_mb": ([r.peak_rss_mb for r in self.runs], "MiB"),
            "workspace_mb": (self.workspace_mb or [0.0], "MiB"),
            "setup_s": (self.setup, "s"),
        }

    def per_layer(self) -> dict:
        imports = [_import_times(err) for _, err in
                   self.fresh_starts(["-X", "importtime"], IMPORTTIME_STARTS)]
        self.loop()
        spans_path = self.work / "spans.json"
        before = self.stub.stats() if self.stub else None
        traced, _ = self.run_all(
            "traced", [sys.executable, str(HERE / "trace_all.py"), str(spans_path)])
        after = self.stub.stats() if self.stub else None
        if not spans_path.exists():
            return {}
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
        if trace["missing"]:
            print(f"names no longer in the package: {', '.join(trace['missing'])}")
        metrics = {f"setup.import_{mod}_s": ([t[mod] for t in imports], "s")
                   for mod in ("numpy", "requests", "sprachbund")}
        metrics.update(self.raw_times())
        layer = layer_metrics(trace, self.spec["source"], before, after)
        untraced = statistics.median(r.wall_s for r in self.runs)
        stage_wall = sum(v for k, (v, _) in layer.items()
                         if k.startswith("cli.") and k.endswith(".wall_s"))
        layer["trace.wall_s"] = (traced.wall_s, "s")
        layer["trace.uncovered_share"] = (1.0 - stage_wall / traced.wall_s, "share")
        layer["trace.overhead_s"] = (traced.wall_s - untraced, "s")
        metrics.update({k: ([v], unit) for k, (v, unit) in layer.items()})
        return metrics


def _import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of numpy and requests, and the package's own."""
    cumulative = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m and m.group(2) in ("numpy", "requests", "sprachbund"):
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    numpy_s = cumulative.get("numpy", 0.0)
    requests_s = cumulative.get("requests", 0.0)
    return {"numpy": numpy_s, "requests": requests_s,
            "sprachbund": cumulative.get("sprachbund", 0.0) - numpy_s - requests_s}


def layer_metrics(trace: dict, source: str, before: dict | None,
                  after: dict | None) -> dict:
    """Per-layer self times and counts from one traced run.

    A metric whose span was never entered is 0 when the workload by design
    does not use that layer (HTTP on file workloads, the embed-stage file
    read on the HTTP workload), and absent otherwise, so a name the program
    stopped calling does not read as free.
    """
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    agg: dict[str, dict] = {}
    for i, s in enumerate(spans):
        key = s["name"]
        if key == "embedding.load":
            parent = s["parent"]
            while parent is not None and not spans[parent]["name"].startswith("cli."):
                parent = spans[parent]["parent"]
            key += "." + (spans[parent]["name"][4:] if parent is not None else "?")
        a = agg.setdefault(key, {"wall": 0.0, "self": 0.0, "calls": 0, "counts": {}})
        a["wall"] += s["end"] - s["start"]
        a["self"] += s["end"] - s["start"] - child[i]
        a["calls"] += 1
        for name, value in s["counts"].items():
            a["counts"][name] = a["counts"].get(name, 0) + value
    idle = {"embedding.fetch"} if source == "file" else {"embedding.load.embed"}
    empty = {"wall": 0.0, "self": 0.0, "calls": 0, "counts": {}}

    def span(key: str) -> dict | None:
        if key in agg:
            return agg[key]
        return empty if key in idle else None

    out: dict[str, tuple[float, str]] = {}

    def put(name: str, key: str, field: str, unit: str) -> None:
        a = span(key)
        if a is None:
            return
        value = a[field] if field in ("wall", "self", "calls") else a["counts"].get(field, 0)
        out[name] = (value, unit)

    for stage in STAGES:
        key = f"cli.{stage}"
        put(f"{key}.wall_s", key, "wall", "s")
        put(f"{key}.self_s", key, "self", "s")
        put(f"{key}.peak_rss_mb", key, "peak_rss_mb", "MiB")
        put(f"{key}.bytes_out", key, "bytes_out", "bytes")
    put("registry.load_s", "registry.load", "self", "s")
    put("registry.load_calls", "registry.load", "calls", "count")
    put("corpus.ingest_s", "corpus.ingest", "self", "s")
    put("corpus.sample_s", "corpus.sample", "self", "s")
    put("corpus.sentences_in", "corpus.ingest", "sentences_in", "count")
    put("corpus.sentences_out", "corpus.sample", "sentences_out", "count")
    put("corpus.bytes_in", "corpus.ingest", "bytes_in", "bytes")
    for stage in ("embed", "repr"):
        key = f"embedding.load.{stage}"
        put(f"embedding.load_s.{stage}", key, "self", "s")
        put(f"embedding.load_vectors.{stage}", key, "vectors", "count")
        put(f"embedding.load_bytes.{stage}", key, "bytes", "bytes")
    put("embedding.write_s", "embedding.write", "self", "s")
    put("embedding.write_vectors", "embedding.write", "vectors", "count")
    put("embedding.write_bytes", "embedding.write", "bytes", "bytes")
    put("embedding.centroid_s", "embedding.centroid", "self", "s")
    put("embedding.centroid_vectors", "embedding.centroid", "vectors", "count")
    # the embed stage keeps what it writes; the repr stage averages all it reads
    kept = {"embed": out.get("embedding.write_vectors"),
            "repr": out.get("embedding.centroid_vectors")}
    for stage, used in kept.items():
        parsed = out.get(f"embedding.load_vectors.{stage}")
        if parsed is not None and used is not None:
            share = used[0] / parsed[0] if parsed[0] else 0.0
            out[f"embedding.load_used_share.{stage}"] = (share, "share")
    put("embedding.fetch_s", "embedding.fetch", "self", "s")
    if span("embedding.fetch") is not None:
        delta = ({k: after[k] - before[k] for k in after}
                 if before and after else {})
        out["embedding.http_requests"] = (delta.get("requests", 0), "count")
        out["embedding.http_retries"] = (delta.get("errors_5xx", 0), "count")
        out["embedding.service_wait_s"] = (delta.get("service_s", 0.0), "s")
        out["embedding.service_cpu_s"] = (delta.get("cpu_s", 0.0), "s")
    put("simmatrix.build_s", "simmatrix.build", "self", "s")
    put("cluster.agglomerate_s", "cluster.agglomerate", "self", "s")
    put("cluster.agglomerate_calls", "cluster.agglomerate", "calls", "count")
    put("cluster.cut_s", "cluster.cut", "self", "s")
    put("partition.sweep_s", "partition.sweep", "self", "s")
    put("partition.select_pivot_s", "partition.select_pivot", "self", "s")
    put("partition.manifests", "partition.sweep", "manifests", "count")
    put("analysis.report_s", "analysis.report", "self", "s")
    put("projection.affinities_s", "projection.affinities", "self", "s")
    put("projection.tsne_s", "projection.tsne", "self", "s")
    put("projection.tsne_iterations", "projection.tsne", "iterations", "count")
    put("projection.final_kl", "projection.tsne", "final_kl", "nats")
    put("projection.plot_s", "projection.plot", "self", "s")
    return out


def environment(root: Path, src: Path) -> dict:
    """The machine and code a result was measured on."""
    def read(path: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return ""
    model = re.search(r"^model name\s*:\s*(.*)$", read("/proc/cpuinfo"), re.M)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        caches[f"L{level} {kind}"] = read(f"{index}/size")
    mem = re.search(r"^MemTotal:\s*(\d+) kB", read("/proc/meminfo"), re.M)
    digest = hashlib.sha256()
    for path in sorted((src / "sprachbund").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model.group(1) if model else platform.processor(),
        "caches": caches,
        "memory_mib": int(mem.group(1)) // 1024 if mem else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "side_effects": "none: no page-cache dropping and no cgroup, kernel "
                        "or CPU-frequency settings; only this command's own "
                        "child processes are timed",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # let `finally` stop the stub and the running child on SIGTERM too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "sprachbund" / "cli.py").is_file():
        print("perfbench: src/sprachbund/cli.py not found; run from the root "
              "of a sprachbund checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args, root, work)
    try:
        bench.prepare()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        env = environment(root, bench.src)
    finally:
        if bench.stub is not None:
            bench.stub.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = len(bench.failures)
    for failure in bench.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  runs {bench.attempted}  "
          f"failed {failed}  error_rate {failed / bench.attempted:.4f}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    # the raw times behind the calibrated ones are shown, not reported
    shown = metrics if args.trace else {**metrics, **bench.raw_times()}
    summary = {}
    for name, (values, unit) in shown.items():
        s = summarize(values)
        summary[name] = dict(s, unit=unit)
        print(f"{name:34} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
              f"{s['n']:3d}  {unit}")
    print(json.dumps({"environment": env, "error_rate": failed / bench.attempted},
                     sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": summary[name]["median"],
                           "unit": summary[name]["unit"]} for name in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
