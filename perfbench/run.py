"""Benchmark of the withinperfect CLI on two fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one summary

Run from the root of a source checkout; the program is imported from
``src/``.  A workload is a fixed batch of CLI commands; one pass runs each of
them once, in order, every invocation in a fresh single-threaded worker
process, so import cost and peak RSS are those a user pays.  Each artifact is
checked (``checks.py``) before it counts.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates plain and traced passes and reports the per-layer metrics
(``spans.py``), the tracing overhead and a sieve thread-scaling probe.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402

#: Workload reasons, metric units and the run length live in BENCHMARK.json.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

DEFAULT_SEED = 1
#: Set-up is repeated until both limits are met and its median reported, so
#: one slow start does not decide it.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
#: Timed passes per run at least, however long each one takes.
MIN_SAMPLES = 2
#: A single run ends (and kills a stuck worker) before this many seconds.
RUN_DEADLINE_S = 170.0

#: The seed draws the cdf grid from this pool; pinned.json holds each point's row.
CDF_POOL = tuple(checks.PINNED["cdf_values"])


@dataclass(frozen=True)
class Command:
    name: str                        # its key in pinned.json
    size: int                        # the stated input size behind n_per_s
    args: Callable[[list[str]], list[str]]  # grid -> CLI arguments
    check: Callable
    cached: bool = False             # reads a segment cache that set-up fills


COMMANDS = {c.name: c for c in (
    Command("table1-2e7", 20_000_000,
            lambda grid: ["table1", "--limit", "20000000"], checks.check_table1),
    Command("figure1-1e6", 999_999,  # the checkpoints x = 2..10^6
            lambda grid: ["figure1", "--limit", "1000000"], checks.check_figure1),
    Command("census-k1-3e6", 3_000_000,
            lambda grid: ["census", "--b", "1", "--k", "1", "--limit", "3000000"],
            checks.check_census),
    Command("cdf-warm-2e7", 20_000_000,
            lambda grid: ["cdf", "--limit", "20000000", "--grid", ",".join(grid)],
            checks.check_cdf, cached=True),
    # the m in (x^(1/3), x^(2/3)] = [369, 135720]
    Command("gcdsum-5e7", 135_720 - 368,
            lambda grid: ["gcdsum", "--x", "50000000"], checks.check_gcdsum),
)}


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]    # one pass runs each once, in this order

    @property
    def size(self) -> int:
        return sum(c.size for c in self.commands)

    @property
    def cached(self) -> Optional[Command]:
        return next((c for c in self.commands if c.cached), None)


WORKLOADS = {w.name: w for w in (
    Workload("table1-figure1", (COMMANDS["table1-2e7"], COMMANDS["figure1-1e6"])),
    Workload("census-cdf-gcdsum", (COMMANDS["census-k1-3e6"], COMMANDS["cdf-warm-2e7"],
                                   COMMANDS["gcdsum-5e7"])),
)}

if set(WORKLOADS) != set(WHY):
    raise SystemExit("BENCHMARK.json and run.py list different workloads")


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Invocation:
    wall: float       # spawn to exit, as the user waits for it
    import_s: float   # spawn to withinperfect.cli imported
    done_s: float     # spawn to cli.main returned (excludes writing spans)
    rss_mib: float
    report: dict
    ok: bool
    command: str = ""
    digest: Optional[str] = None


@dataclass
class Pass:
    """One run of each of a workload's commands, in order."""
    invocations: list

    @property
    def ok(self) -> bool:
        return all(inv.ok for inv in self.invocations)

    @property
    def wall(self) -> float:
        return sum(inv.wall for inv in self.invocations)

    @property
    def done_s(self) -> float:
        return sum(inv.done_s for inv in self.invocations)

    @property
    def rss_mib(self) -> float:
        return max(inv.rss_mib for inv in self.invocations)

    @property
    def spans(self) -> list:
        return spans.merge([inv.report["spans"] for inv in self.invocations])


@dataclass
class Runner:
    root: Path
    tmp: Path
    start: float      # the run's start; set-up counts towards --seconds
    deadline: float
    env: dict = field(default_factory=dict)
    count: int = 0
    attempted: int = 0
    artifacts: dict = field(default_factory=dict)   # (command, digest) -> kept artifact path
    invocations: list = field(default_factory=list)

    def __post_init__(self):
        env = dict(os.environ)
        env.pop("WITHINPERFECT_CACHE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env

    def spawn(self, mode: str, cli_args=(), traced: bool = False) -> Invocation:
        self.count += 1
        report_path = self.tmp / f"report-{self.count}.json"
        spans_path = self.tmp / f"spans-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(report_path), mode]
        cmd += [str(spans_path)] if traced else []
        cmd += ["--", *cli_args]
        remaining = self.time_left()
        if remaining <= 1:
            raise BenchError("out of time before the run finished")
        with open(self.tmp / "worker.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.tmp, env=self.env, stdout=log, stderr=log)
            # a blocking wait sees the exit at once (wait(timeout) polls);
            # the timer kills a worker that would overrun the run's deadline
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            proc.wait()
            wall = time.perf_counter() - start
            watchdog.cancel()
        if proc.returncode != 0 or not report_path.exists():
            nan = float("nan")
            return Invocation(wall, nan, nan, nan, {}, False)
        report = json.loads(report_path.read_text())
        package = Path(report["package"]).resolve()
        if self.root / "src" not in package.parents:
            raise BenchError(f"worker imported withinperfect from {package}, not from src/")
        if traced:
            report["spans"] = spans.load(str(spans_path))
            spans_path.unlink()
        return Invocation(wall, report["t_imported"] - start,
                          report.get("t_done", float("nan")) - start,
                          report["peak_rss_kib"] / 1024, report, report.get("rc", 0) == 0)

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def more(self, done: list, needed: int, seconds: float) -> bool:
        """Whether to start another pass: until `needed` are done, then while
        one more (as long as the median so far) ends within `seconds` of the
        run's start, set-up included; never when it would miss the deadline."""
        if done and self.time_left() < 1.5 * done[-1].wall + 10:
            return False
        if len(done) < needed:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(p.wall for p in done) <= seconds

    def cli(self, command: Command, grid: list[str], cache_dir: Optional[Path] = None,
            traced: bool = False) -> Invocation:
        """One CLI invocation of the command, with its artifact's digest checked."""
        out = self.tmp / "artifact.out"
        args = (["--cache-dir", str(cache_dir)] if cache_dir else []) + command.args(grid)
        self.attempted += 1
        inv = self.spawn("cli", args + ["--out", str(out)], traced)
        inv.command = command.name
        if inv.ok and out.exists():
            data = out.read_bytes()
            inv.digest = checks.sha256(data)
            inv.ok = inv.digest == checks.expected_digest(command.name, grid)
            key = (command.name, inv.digest)
            if key not in self.artifacts:
                kept = self.tmp / f"artifact-{len(self.artifacts)}"
                out.replace(kept)
                self.artifacts[key] = kept
        else:
            inv.ok = False
        out.unlink(missing_ok=True)
        self.invocations.append(inv)
        return inv

    def run_pass(self, workload: Workload, grid: list[str], cache_dir: Optional[Path],
                 traced: bool = False) -> Pass:
        """Each command of the workload once; only the cached one gets the cache."""
        return Pass([self.cli(c, grid, cache_dir if c.cached else None, traced)
                     for c in workload.commands])

    def verify(self, grid: list[str], seed: int) -> list[str]:
        """Independent checks on each distinct artifact; failing ones fail
        every invocation that produced them."""
        errored = sum(inv.digest is None for inv in self.invocations)
        problems = [f"{errored} invocation(s) failed or wrote no artifact"] if errored else []
        for (name, digest), path in self.artifacts.items():
            expected = checks.expected_digest(name, grid)
            try:
                found = COMMANDS[name].check(path.read_bytes(), random.Random(seed), grid)
            except (ValueError, KeyError, IndexError) as exc:
                found = [f"malformed artifact: {exc!r}"]
            if digest != expected:
                found.append(f"artifact sha256 {digest} is not the pinned {expected}")
            if found:
                problems += [f"{name}: {problem}" for problem in found]
                for inv in self.invocations:
                    if (inv.command, inv.digest) == (name, digest):
                        inv.ok = False
        return problems

    @property
    def failed(self) -> int:
        return sum(not inv.ok for inv in self.invocations)


def _median(values) -> float:
    values = [v for v in values if v == v]  # drop NaN from failed invocations
    if not values:
        raise BenchError("no invocation succeeded")
    return statistics.median(values)


def _fresh_cache(runner: Runner, previous: Optional[Path]) -> Path:
    if previous is not None:
        shutil.rmtree(previous, ignore_errors=True)
    return Path(tempfile.mkdtemp(prefix="cache-", dir=runner.tmp))


def _setup(runner, workload, grid) -> tuple[list[Invocation], Optional[Path]]:
    """Repeated set-ups; the cache of the last one is kept for the timed passes.

    For a workload that reads a cache, a set-up is a cold invocation of that
    command filling a fresh cache, as a user's first run does; otherwise it
    is a worker that only imports the CLI."""
    done, cache_dir = [], None
    start = time.perf_counter()
    while len(done) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        if workload.cached:
            cache_dir = _fresh_cache(runner, cache_dir)
            done.append(runner.cli(workload.cached, grid, cache_dir))
        else:
            done.append(runner.spawn("import"))
    return done, cache_dir


def _end_to_end(runner, workload, grid, seconds) -> tuple[dict, dict]:
    setup, cache_dir = _setup(runner, workload, grid)
    timed = []
    while runner.more(timed, MIN_SAMPLES, seconds):
        timed.append(runner.run_pass(workload, grid, cache_dir))
    good = [p for p in timed if p.ok]
    wall = _median(p.wall for p in good)
    imports = [inv.import_s for inv in setup] + [inv.import_s for p in timed
                                                 for inv in p.invocations]
    metrics = {
        "wall_s": wall,
        "n_per_s": workload.size / wall,
        "import_s": _median(imports),
        "peak_rss_mb": _median(p.rss_mib for p in good),
        "setup_s": _median(inv.wall for inv in setup),
    }
    return metrics, {"passes": len(good), "import_s": len(imports), "setup_s": len(setup)}


def _per_layer(runner, workload, grid, seconds) -> tuple[dict, dict]:
    setup_spans, cache_dir = [], None
    if workload.cached:
        cache_dir = _fresh_cache(runner, None)
        fill = runner.cli(workload.cached, grid, cache_dir, traced=True)
        setup_spans = fill.report.get("spans", [])
    plain, traced, both = [], [], []
    while runner.more(both, 2, seconds):
        batch = traced if len(plain) > len(traced) else plain
        batch.append(runner.run_pass(workload, grid, cache_dir, traced=batch is traced))
        both.append(batch[-1])
    layers = [spans.layer_metrics(p.spans, setup_spans) for p in traced if p.ok]
    if not layers:
        raise BenchError("no traced pass succeeded")
    metrics = {}
    for name in layers[0]:
        # counts repeat exactly; median_low keeps them whole if one ever differs
        median = statistics.median_low if PER_LAYER[name] == "count" else statistics.median
        metrics[name] = median([layer[name] for layer in layers])
    metrics["trace.overhead_frac"] = (_median(p.done_s for p in traced if p.ok)
                                      / _median(p.done_s for p in plain if p.ok) - 1)
    probe = runner.spawn("probe")
    if not probe.report:
        raise BenchError("the sieve thread-scaling probe failed")
    metrics["sieve.speedup_t2"] = probe.report["t1_s"] / probe.report["t2_s"]
    return metrics, {"traced": len(layers), "plain": len(plain),
                     "probe_t1_s": probe.report["t1_s"], "probe_t2_s": probe.report["t2_s"]}


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the sources
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _versions() -> dict:
    out = {"python": platform.python_version()}
    for dist in ("numpy", "sympy", "mpmath"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    return out


def run_record(root: Path, workload: Workload, args, grid) -> dict:
    return {
        "workload": workload.name, "why": WHY[workload.name], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cli_args": [c.args(grid) for c in workload.commands], "cdf_grid": grid,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "versions": _versions(),
        "commit": _commit(root), "src_sha256": _source_digest(root),
        "notes": ["warm cache reads are served from the OS page cache; "
                  "the benchmark does not drop it",
                  "*_mb byte counts of layers are computed from array and text sizes"],
    }


def run_workload(root: Path, workload: Workload, args) -> dict:
    rng = random.Random(args.seed)
    grid = sorted(rng.sample(CDF_POOL, 4), key=Fraction) if workload.cached else []
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / ".perfbench_tmp"))
    start = time.perf_counter()
    runner = Runner(root, tmp, start, start + RUN_DEADLINE_S)
    try:
        print(json.dumps({"run_record": run_record(
            root, workload, args, grid)}), flush=True)
        measure = _per_layer if args.trace else _end_to_end
        try:
            metrics, samples = measure(runner, workload, grid, args.seconds)
        finally:
            for problem in runner.verify(grid, args.seed):
                print(f"{workload.name}: check failed: {problem}", file=sys.stderr)
    finally:
        log = tmp / "worker.log"
        if runner.failed and log.exists():
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        shutil.rmtree(tmp, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    failed = runner.failed
    print(f"{workload.name}: {runner.attempted} attempted, {failed} failed "
          f"(fail_frac {failed / runner.attempted:.4f}); samples {json.dumps(samples)}")
    for name, unit in units.items():
        print(f"{workload.name}: {name} = {metrics[name]:.6g} {unit}")
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "withinperfect" / "cli.py").is_file():
        print(f"error: no withinperfect sources under {root / 'src'}", file=sys.stderr)
        return 2
    # the build: byte-compile once so no measured import pays for it
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        print("error: the sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    (root / ".perfbench_tmp").mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, WORKLOADS[name], args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (root / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
