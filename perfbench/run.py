"""pressmetrics benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark generates the
workload's inputs from the seed (gen.py), checks the 50-release fixture site
against recorded report digests, then runs the workload's timed pipeline
stages through ``pressmetrics.cli.run`` in fixtures mode, each run in a
fresh worker process (worker.py), until ``--seconds`` are used up. Every run
is checked: stage counts against the generator's ground truth, and report
digests against the first run's.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
runs. With ``--trace 1`` it alternates untraced and traced runs of the
workload's whole stage list and reports the per-layer metrics (spans.py),
including the tracing overhead. The last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit and sample count. The exit code is 1 when
any run failed. README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import gen
from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
REFERENCE = HERE / "fixture_reference.json"
WORKER_TIMEOUT_S = 150

ALL_STAGES = ("crawl", "parse", "ingest-tweets", "ingest-links", "couple", "analyze", "report")
_ANALYSIS = ("couple", "analyze", "report")


def _analysis_pass(granularity: str) -> list:
    return [[stage, {"report_dir": f"reports_{granularity}", "granularity": granularity}]
            for stage in _ANALYSIS]


class Plan(NamedTuple):
    setup_steps: list    # run in each set-up, timed into setup_s
    timed_steps: list    # one timed run
    setups: int          # set-ups per invocation, spread over the timed window


PLANS = {
    "crawl-parse": Plan([], [[stage, {}] for stage in ALL_STAGES], setups=9),
    # each set-up crawls and ingests, so fewer of them keep an invocation short
    "reanalyze": Plan([[stage, {}] for stage in ALL_STAGES[:4]],
                      _analysis_pass("yearly") + _analysis_pass("daily"), setups=3),
}


def records_per_run(workload: str, truth: dict) -> int:
    """Primary input records one timed run completes."""
    if workload == "crawl-parse":
        return truth["fetched"]
    return truth["parsed"] * 2  # releases per analysis pass, two passes


END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "throughput_rps": "1/s", "politeness_budget_s": "virtual_s"}

# manifest count that must equal the ground truth, per stage
TRUTH_COUNTS = {
    "crawl": ("fetched", "press_releases"),
    "parse": ("parsed",),
    "ingest-tweets": ("mentions_kept",),
    "ingest-links": ("attached", "outdated", "rejected"),
}


def check_counts(steps: list[dict], truth: dict) -> list[str]:
    """Stage manifest counts that differ from the generator's ground truth."""
    errors = []
    for step in steps:
        counts = step["counts"]
        for key in TRUTH_COUNTS.get(step["stage"], ()):
            if counts.get(key) != truth[key]:
                errors.append(f"{step['stage']}: {key}={counts.get(key)} expected {truth[key]}")
        if step["stage"] == "analyze":
            expected = {"corpus_total": truth["parsed"], "mentions": truth["mentions_kept"]}
            for key, value in expected.items():
                if counts.get(key) != value:
                    errors.append(f"analyze: {key}={counts.get(key)} expected {value}")
    return errors


def check_digests(digests: dict, reference: dict, what: str) -> list[str]:
    """Report files whose digest differs from the reference run's."""
    if digests == reference:
        return []
    names = sorted(set(digests) | set(reference))
    diffs = []
    for name in names:
        got, want = digests.get(name, {}), reference.get(name, {})
        diffs += [f"{name}/{f}" for f in sorted(set(got) | set(want)) if got.get(f) != want.get(f)]
    return [f"report digests differ from {what}: {', '.join(diffs)}"]


def fixture_config(work: Path) -> dict:
    """The bundled 50-release site, configured as the acceptance tests do."""
    return {
        "seed_path": "www.eksci.test/releases/", "rate_limit": 1.0,
        "corpus_dir": str(work / "corpus"), "report_dir": str(work / "reports"),
        "fixtures_dir": str(FIXTURES / "site"),
        "alias_institutions": str(FIXTURES / "aliases_institutions.csv"),
        "alias_journals": str(FIXTURES / "aliases_journals.csv"),
        "doi_rewrites": str(FIXTURES / "doi_rewrites.csv"),
        "external_counts": str(FIXTURES / "external_counts.csv"),
        "tweets_file": str(FIXTURES / "tweets_main.jsonl"),
        "backlinks_file": str(FIXTURES / "backlinks_main.csv"),
        "resolver_file": str(FIXTURES / "resolver_main.csv"),
    }


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0

    def fail(self, messages: list[str]) -> None:
        self.failed += 1
        for message in messages:
            print(f"check failed: {message}", file=sys.stderr)

    def worker(self, name: str, cfg: dict, steps: list, trace: bool = False,
               spans_out: Path | None = None) -> dict | None:
        """Run one plan in a fresh process; None (and a counted failure) if it
        raised or timed out."""
        self.attempted += 1
        plan_path = self.work / f"{name}.plan.json"
        run_dir = Path(cfg["corpus_dir"]).parent
        steps = [[stage, {k: str(run_dir / v) if k == "report_dir" else v
                          for k, v in overrides.items()}] for stage, overrides in steps]
        plan = {"src": str(SRC), "config": cfg, "steps": steps, "trace": trace,
                "spans_out": str(spans_out) if spans_out else None}
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail([f"{name}: worker timed out after {WORKER_TIMEOUT_S} s"])
            return None
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {
            "ok": False, "error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
        if not result["ok"]:
            self.fail([f"{name}: {result['error']}"])
            print(result.get("traceback", ""), file=sys.stderr)
            return None
        return result

    def fixture_digests(self) -> dict | None:
        work = self.work / "fixture"
        result = self.worker("fixture", fixture_config(work),
                             [[stage, {}] for stage in ALL_STAGES])
        shutil.rmtree(work, ignore_errors=True)
        return result and result["digests"]

    def fixture_reference(self) -> None:
        """The bundled site's report digests must equal the recorded ones."""
        digests = self.fixture_digests()
        if digests is not None:
            reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
            errors = check_digests(digests, reference, "the recorded fixture reference")
            if errors:
                self.fail(errors)

    def setup(self, index: int) -> tuple[float, Path, dict, dict | None]:
        """Generate inputs (and run the set-up stages); returns its time."""
        setup_steps = PLANS[self.workload].setup_steps
        base = self.work / f"setup{index}"
        t0 = time.perf_counter()
        truth = gen.generate(self.workload, self.seed, base / "inputs")
        result = None
        if setup_steps:
            result = self.worker(f"setup{index}", gen.pipeline_config(base / "inputs", base), setup_steps)
        elapsed = time.perf_counter() - t0
        if result is not None:
            errors = check_counts(result["steps"], truth)
            if errors:
                self.fail(errors)
        return elapsed, base, truth, result

    def fresh_run_dir(self, base: Path, name: str) -> Path:
        """Per-run corpus and report directories; the analysis-only plan
        starts from a copy of the set-up corpus files."""
        run = self.work / name
        (run / "corpus").mkdir(parents=True)
        if PLANS[self.workload].setup_steps:
            for path in (base / "corpus").glob("*.jsonl"):
                if path.name not in ("run_log.jsonl", "crawl_manifest.jsonl"):
                    shutil.copy2(path, run / "corpus" / path.name)
        return run

    def timed_runs(self, seconds: float, make_run, between=None) -> None:
        """Call make_run() at least once, then until the next call would take
        the time spent in make_run past ``seconds`` or a call fails.
        ``between(measured)`` runs after each call, outside the measured time."""
        durations: list[float] = []
        while not durations or sum(durations) + statistics.median(durations) <= seconds:
            t = time.perf_counter()
            if not make_run():
                return
            durations.append(time.perf_counter() - t)
            if between:
                between(sum(durations))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics over timed runs. The set-ups are spread evenly over
    the timed window, so setup_s sees the machine as the timed runs do."""
    plan = PLANS[bench.workload]
    setups = [bench.setup(0)]
    _, base, truth, setup_result = setups[0]
    bench.fixture_reference()
    if plan.setup_steps and setup_result is None:
        return {}

    def more_setups(measured: float) -> None:
        while len(setups) < plan.setups and measured >= len(setups) * seconds / plan.setups:
            setups.append(bench.setup(len(setups)))
            shutil.rmtree(setups[-1][1], ignore_errors=True)
            if setups[-1][2] != truth:
                bench.fail(["generator gave different inputs for one seed"])

    cfg_inputs = base / "inputs"
    samples: list[dict] = []

    def one_run() -> bool:
        run = bench.fresh_run_dir(base, f"run{len(samples)}")
        result = bench.worker(run.name, gen.pipeline_config(cfg_inputs, run), plan.timed_steps)
        shutil.rmtree(run, ignore_errors=True)
        if result is None:
            return False
        errors = check_counts(result["steps"], truth)
        if samples:
            errors += check_digests(result["digests"], samples[0]["digests"], "the first run")
        if errors:
            bench.fail(errors)
        samples.append(result)
        return True

    bench.timed_runs(seconds, one_run, more_setups)
    more_setups(seconds)
    print("run_s per run: " + " ".join(f"{s['run_s']:.3f}" for s in samples), file=sys.stderr)
    records = records_per_run(bench.workload, truth)
    budgets = ([setup_result["politeness_budget_s"]] if setup_result
               else [s["politeness_budget_s"] for s in samples])
    values = {
        "setup_s": [s[0] for s in setups],
        "run_s": [s["run_s"] for s in samples],
        "cpu_s": [s["cpu_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "throughput_rps": [records / s["run_s"] for s in samples],
        "politeness_budget_s": budgets,
    }
    metrics = {name: (_median(values[name]), unit, len(values[name]))
               for name, unit in END_TO_END_UNITS.items()}
    metrics["_input"] = {"records_per_run": records, **truth}
    return metrics


def trace(bench: Bench, seconds: float) -> dict:
    """Per-layer metrics: alternate untraced and traced runs of the whole
    stage list (set-up stages included) over one set of inputs."""
    inputs = bench.work / "inputs"
    truth = gen.generate(bench.workload, bench.seed, inputs)
    bench.fixture_reference()
    steps = PLANS[bench.workload].setup_steps + PLANS[bench.workload].timed_steps
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_out = out_dir / f"spans-{bench.workload}-seed{bench.seed}.json"
    untraced: list[dict] = []
    traced: list[dict] = []

    def one_pair() -> bool:
        pair = []
        for traced_run in (False, True):
            run = bench.work / f"{'traced' if traced_run else 'plain'}{len(traced)}"
            (run / "corpus").mkdir(parents=True)
            result = bench.worker(run.name, gen.pipeline_config(inputs, run), steps,
                                  trace=traced_run, spans_out=spans_out if traced_run else None)
            shutil.rmtree(run, ignore_errors=True)
            if result is None:
                return False
            errors = check_counts(result["steps"], truth)
            if traced_run:
                errors += check_digests(result["digests"], pair[0]["digests"], "the untraced run")
            if errors:
                bench.fail(errors)
            pair.append(result)
        untraced.append(pair[0])
        traced.append(pair[1])
        return True

    bench.timed_runs(seconds, one_pair)
    if not traced:
        return {}
    for t, u in zip(traced, untraced):
        t["layers"]["trace.overhead_ratio"] = t["run_s"] / u["run_s"]
    metrics = {name: (_median([t["layers"][name] for t in traced]), unit, len(traced))
               for name, unit in PER_LAYER}
    print(f"span table: {spans_out.relative_to(ROOT)}", file=sys.stderr)
    return metrics


@contextmanager
def scratch(name: str):
    """A work directory under .perfbench_work, removed on exit."""
    work = ROOT / ".perfbench_work" / name
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it


def record_reference() -> None:
    """Re-record fixture_reference.json from the current source tree. Only
    for a change that is meant to alter the fixture reports."""
    with scratch(f"record-pid{os.getpid()}") as work:
        digests = Bench("fixture", 0, work).fixture_digests()
    if digests is None:
        raise SystemExit("fixture run failed")
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running worker is killed and
    # waited for, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (SRC / "pressmetrics" / "cli.py", FIXTURES / "site", REFERENCE)
               if not p.exists()]
    if missing:
        print(f"error: not a pressmetrics checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    with scratch(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") as work:
        bench = Bench(args.workload, args.seed, work)
        metrics = trace(bench, args.seconds) if args.trace else measure(bench, args.seconds)

    inputs = metrics.pop("_input", None)
    if inputs:
        print("inputs: " + ", ".join(f"{k}={v}" for k, v in inputs.items()
                                    if k not in ("workload", "seed")))
    for name, (value, unit, n) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit:10s} n={n}")
    print(f"{'failed_ratio':48s} {bench.failed / max(bench.attempted, 1):14.6f} {'ratio':10s} "
          f"n={bench.attempted}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
