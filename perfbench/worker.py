"""One measured pipeline run, in a process of its own.

Usage: python3 worker.py PLAN.json

The plan names the source tree, the base pipeline configuration and the
steps to run: a list of [stage, overrides] pairs executed through
``pressmetrics.cli.run``. The worker prints one JSON object: wall and CPU
time of the steps, the process's peak resident memory, each step's
manifest counts, the virtual time the crawl spent under the rate limiter,
and a SHA-256 digest of every report file. With ``"trace": true`` the run
goes through the span recorder and the result adds the per-layer metrics;
the span table is written to ``spans_out``.

A fresh process per run keeps peak memory attributable to that run and
stops one run's caches or garbage from leaking into the next.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from datetime import datetime
from pathlib import Path

_EPOCH = datetime.fromisoformat("1970-01-01T00:00:00+00:00")


def report_digests(report_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(report_dir.iterdir()) if p.is_file()}


def politeness_budget(crawl_manifest: Path) -> float:
    """Virtual seconds from the epoch of the fixtures clock to the last grant."""
    last = _EPOCH
    with open(crawl_manifest, encoding="utf-8") as fh:
        for line in fh:
            stamp = datetime.fromisoformat(json.loads(line)["fetched_at"].replace("Z", "+00:00"))
            last = max(last, stamp)
    return (last - _EPOCH).total_seconds()


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own memory image (Linux VmHWM).

    Not ``ru_maxrss``: on Linux, exec carries the high-water mark of the
    image it replaces (the parent's, under vfork or fork) into that figure.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def execute(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    from pressmetrics import cli

    recorder = restore = None
    if plan.get("trace"):
        import spans
        recorder = spans.Recorder()
        restore = spans.install(recorder)

    steps = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for stage, overrides in plan["steps"]:
        cfg = cli.build_config(plan["config"], overrides)
        manifest = cli.run(stage, cfg)
        steps.append({"stage": stage, "report_dir": str(cfg.report_dir),
                      "counts": manifest.counts})
    run_s = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if restore:
        restore()

    result = {
        "ok": True,
        "run_s": run_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": peak_rss_mb(),
        "steps": steps,
        "digests": {Path(d).name: report_digests(Path(d))
                    for d in dict.fromkeys(s["report_dir"] for s in steps
                                           if s["stage"] in ("couple", "analyze", "report"))},
    }
    if any(stage == "crawl" for stage, _ in plan["steps"]):
        result["politeness_budget_s"] = politeness_budget(
            Path(plan["config"]["corpus_dir"]) / "crawl_manifest.jsonl")
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder)
        if plan.get("spans_out"):
            Path(plan["spans_out"]).write_text(json.dumps(recorder.dump(), indent=1) + "\n",
                                               encoding="utf-8")
    return result


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    try:
        result = execute(plan)
    except Exception as err:  # reported to the parent, which counts it as a failed run
        result = {"ok": False, "error": f"{type(err).__name__}: {err}",
                  "traceback": traceback.format_exc()}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
