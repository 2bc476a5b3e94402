"""xlembed benchmark: seeded synthetic workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program under test is the
`xlembed` package in `src/` of that checkout. Inputs are generated from the
seed, untimed, under `.bench_work/`. Every measured command is a fresh
`xlembed` process, one at a time, with BLAS/OpenMP threads pinned.

--trace 0 (end-to-end): the workload command runs again and again, each
time into a fresh run directory, while the next run is expected to end
within S seconds (at least twice). Before each run `xlembed --version` is
spawned a few times; the median of those wall times is `setup_s`.
`wall_s` is the median spawn-to-exit wall time and `peak_rss_mb` the median
of the child's ru_maxrss (from os.wait4). Each run is checked (exit code,
manifest status, artifact digests equal to the first run's, P@k and
sentiment accuracy within the construction's expected range, tweet count)
and its directory deleted.

--trace 1 (per layer): the workload runs once untraced and once through
perfbench/layertrace.py, which shims the layer functions and records spans;
the per-layer metrics come from the spans, tracing overhead is traced minus
untraced wall time, and the two runs' artifacts must be byte-identical.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A results file with the
environment, input digests, computed kernel counts and every run is
written under `.bench_work/results/`.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Children get at most two BLAS/OpenMP threads (fewer if fewer CPUs are
# available), so a run measures the same configuration on any machine.
N_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
THREAD_ENV = {
    var: str(N_THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
CLI_BOOT = "import sys; from xlembed.cli import main; sys.exit(main())"
# Set-up is sampled before every run, so its median spans the whole window.
SETUP_SPAWNS_PER_RUN = 4
MIN_RUNS = 2
RUN_DEADLINE_S = 170.0

PAGE_CACHE_NOTE = (
    "inputs are read from a warm page cache (written just before the timed "
    "runs); cold-cache reads are not measured, because dropping the page "
    "cache is not possible without privileges"
)

SELF_LEARN_MAX_ITERS = 5

WORKLOADS = {
    "pipeline-procrustes-10k": {
        "why": (
            "embedding I/O plus cosine retrieval: load/save are most of the "
            "run, P@k about a quarter, Procrustes under 1%"
        ),
        "kind": "pipeline",
        "sentiment": True,
        "config": {
            "dictionary": {"mode": "identical"},
            "mapper": {"method": "procrustes"},
            "refine": {"mode": "weighted"},
            "save_aligned_embeddings": True,
            "retrieval": "cosine",
        },
        # Lowest values accepted as correct, in percent; twelve measured
        # seeds gave P@1 74.6-79.8, P@10 92.9-95.4 and accuracy 70.0-79.6.
        "floors": {"p_at_1": 65.0, "p_at_10": 85.0, "sentiment_acc": 60.0},
    },
    "self-learn-csls-10k": {
        "why": (
            "self-learning with CSLS and CSLS retrieval dominate; embeddings "
            "are read but never written, so I/O changes should stay flat"
        ),
        "kind": "pipeline",
        "sentiment": False,
        "config": {
            "dictionary": {"mode": "identical", "classes": ["numeral", "emoji"]},
            "mapper": {
                "method": "self-learn",
                "induce_vocab_cutoff": 5000,
                "retrieval": "csls",
                "max_iters": SELF_LEARN_MAX_ITERS,
            },
            "refine": {"mode": "meemi"},
            "save_aligned_embeddings": False,
            "retrieval": "csls",
        },
        # Eleven measured seeds gave P@1 33.1-38.1 and P@10 60.2-67.3.
        "floors": {"p_at_1": 25.0, "p_at_10": 50.0},
    },
    "corpus-vocab-200k": {
        "why": (
            "only the pure-Python tokenizer, dedup and counting do work; "
            "numpy/BLAS layers are idle, so kernel changes must not move it"
        ),
        "kind": "vocab",
        "floors": {},
    },
}

INPUT_NOTES = {
    "noise": (
        "target noise is 0.15: at 10k x 300, noise 0.10 saturates "
        "Procrustes P@1 at 100, while 0.15 leaves it near 75-80, so an "
        "accuracy loss stays visible"
    ),
    "max_iters": (
        f"self-learning is capped at {SELF_LEARN_MAX_ITERS} iterations: "
        "uncapped at noise 0.15 it runs for dozens (46 iterations and 87 s "
        "on seed 1), and the cap fixes the run length"
    ),
}


# -- inputs -----------------------------------------------------------------

def make_inputs(spec, seed, root):
    import fixtures

    root.mkdir(parents=True)
    if spec["kind"] == "vocab":
        info = fixtures.tweet_corpus(root, seed)
        info["argv"] = lambda out: [
            "vocab", str(root / "corpus.txt"),
            "--out", str(out / "vocab.tsv"), "--min-count", "5",
        ]
    else:
        info = fixtures.embedding_pair(root, seed, spec["sentiment"])
        c = spec["config"]
        translation = {
            "test_dictionary": "gold.txt",
            "ks": [1, 5, 10],
            "retrieval": c["retrieval"],
        }
        evaluation = {"translation": translation}
        if spec["sentiment"]:
            evaluation["sentiment"] = {
                "train": "sent_train.tsv", "test": "sent_test.tsv",
            }
        config = {
            "seed": seed,
            "src": {"embeddings": "src.vec", "vocab": "src_vocab.tsv"},
            "tgt": {"embeddings": "tgt.vec", "vocab": "tgt_vocab.tsv"},
            "normalize": ["unit", "center", "unit"],
            "dictionary": c["dictionary"],
            "mapper": c["mapper"],
            "refine": c["refine"],
            "save_aligned_embeddings": c["save_aligned_embeddings"],
            "eval": evaluation,
        }
        fixtures.write_json(root / "config.json", config)
        info["argv"] = lambda out: [
            "pipeline", "--config", str(root / "config.json"), "--out", str(out),
        ]
    info["files"] = fixtures.describe_inputs(root)
    return info


# -- child processes --------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, cwd, log_prefix, deadline):
    """Run one child to completion; returns (exit code, wall s, maxrss MiB).

    Wall time runs from just before the spawn to the reaping of the child.
    A child still running at the deadline is killed, and reaped."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, 0.0, 0.0
    with open(f"{log_prefix}.out", "wb") as out, open(f"{log_prefix}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_argv(args):
    return [sys.executable, "-c", CLI_BOOT] + list(args)


# -- output checks ----------------------------------------------------------

def digests(out_dir):
    result = {}
    for p in sorted(out_dir.rglob("*")):
        if p.is_file():
            result[str(p.relative_to(out_dir))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return result


def _tsv_metrics(path):
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or "\t" not in line:
            continue
        key, value = line.split("\t", 1)
        values[key] = value
    return values


def check_outputs(spec, info, rep_dir, code):
    """Problems with one run's outputs (empty when correct), and the
    quality figures the run reported."""
    if code is None:
        return ["killed at the run deadline"], {}
    if code != 0:
        err = (rep_dir / "cmd.err").read_text(encoding="utf-8", errors="replace")
        return [f"exit code {code}: {err.strip()[-300:]}"], {}
    out = rep_dir / "out"
    problems, quality = [], {}
    if spec["kind"] == "vocab":
        stdout = (rep_dir / "cmd.out").read_text(encoding="utf-8", errors="replace")
        reported = stdout.split(" tweets,", 1)[0].strip()
        if reported != str(info["distinct_tweets"]):
            problems.append(
                f"reported {reported!r} tweets, corpus has "
                f"{info['distinct_tweets']} distinct lines"
            )
        vocab = out / "vocab.tsv"
        if not vocab.exists() or vocab.stat().st_size == 0:
            problems.append("vocab.tsv missing or empty")
        return problems, quality
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return ["manifest.json missing"], quality
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}")
    missing = [a for a in manifest.get("artifacts", []) if not (out / a).exists()]
    if missing:
        problems.append(f"artifacts listed but missing: {missing}")
    try:
        tr = _tsv_metrics(out / "translation_report.tsv")
        quality["p_at_1"] = float(tr["P@1"])
        quality["p_at_10"] = float(tr["P@10"])
        if spec["sentiment"]:
            sr = _tsv_metrics(out / "sentiment_report.tsv")
            quality["sentiment_acc"] = float(sr["accuracy"])
    except (OSError, KeyError, ValueError) as exc:
        return problems + [f"unreadable report: {exc!r}"], quality
    for key, floor in spec["floors"].items():
        if quality[key] < floor:
            problems.append(f"{key} {quality[key]} below the expected floor {floor}")
    return problems, quality


def run_once(spec, info, work, label, deadline, traced_spans=None):
    rep_dir = work / label
    rep_dir.mkdir()
    out = rep_dir / "out"
    if spec["kind"] == "vocab":
        out.mkdir()
    args = info["argv"](out)
    if traced_spans is None:
        argv = cli_argv(args)
    else:
        argv = [sys.executable, str(BENCH / "layertrace.py"), str(traced_spans)] + args
    code, wall, rss = spawn(argv, rep_dir, rep_dir / "cmd", deadline)
    problems, quality = check_outputs(spec, info, rep_dir, code)
    files = digests(out) if code == 0 else {}
    run = {"label": label, "exit_code": code, "wall_s": wall, "peak_rss_mb": rss,
           "problems": problems, "digests": files, **quality}
    if "src_aligned.vec" in files:
        run["embedding_bytes_written"] = sum(
            (out / f).stat().st_size for f in ("src_aligned.vec", "tgt_aligned.vec"))
    shutil.rmtree(rep_dir)
    return run


# -- records ----------------------------------------------------------------

def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "child_thread_env": THREAD_ENV,
        "page_cache": PAGE_CACHE_NOTE,
    }


def computed_counts(info):
    """Kernel counts that are computed, not measured."""
    counts = {"label": "computed"}
    vec = {k: v["bytes"] for k, v in info["files"].items() if k.endswith(".vec")}
    if vec:
        counts["embedding_bytes_read"] = sum(vec.values())
    # The CSLS penalty in translate materialises an n_tgt x n_src float64
    # matrix; at the ROADMAP's larger scales it cannot fit in 8 GB, which
    # is why those scales are not workloads.
    counts["csls_penalty_matrix_gb"] = {
        str(v): v * v * 8 / 1e9 for v in (10_000, 50_000, 200_000)
    }
    return counts


def _summary(values):
    if not values:
        return {}
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def write_results(name, seed, trace, record):
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# -- workloads --------------------------------------------------------------

def measure(seconds, work, spec, info, deadline):
    """End-to-end metrics with tracing off."""
    setup = []

    def measure_setup():
        for _ in range(SETUP_SPAWNS_PER_RUN):
            code, wall, _ = spawn(
                cli_argv(["--version"]), work, work / f"setup{len(setup)}", deadline)
            setup.append({"exit_code": code, "wall_s": wall})

    spawn(cli_argv(["--version"]), work, work / "warmup", deadline)
    # Runs start while the next one is expected to end inside the window
    # (at least MIN_RUNS), and never when it would overrun the deadline.
    runs = []
    start = time.monotonic()
    while True:
        now = time.monotonic()
        if runs:
            expected = statistics.median(r["wall_s"] for r in runs)
            if now + expected > deadline or (
                len(runs) >= MIN_RUNS and now + expected - start > seconds
            ):
                break
        measure_setup()
        runs.append(run_once(spec, info, work, f"run{len(runs)}", deadline))
    first = runs[0]["digests"]
    for run in runs[1:]:
        if run["exit_code"] == 0 and run["digests"] != first:
            run["problems"].append("artifact digests differ from the first run's")
    ok = [r for r in runs if not r["problems"]]
    failed = len(runs) - len(ok)
    setup_ok = [s["wall_s"] for s in setup if s["exit_code"] == 0]
    summary = {
        "setup_s": _summary(setup_ok),
        "wall_s": _summary([r["wall_s"] for r in ok]),
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in ok]),
    }
    for key in ("p_at_1", "p_at_10", "sentiment_acc"):
        if ok and key in ok[0]:
            summary[key] = ok[0][key]
    metrics = {}
    if ok and len(setup_ok) == len(setup):
        metrics = {
            "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
            "wall_s": {"value": summary["wall_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"]["median"], "unit": "MiB"},
        }
    correct = failed == 0 and len(setup_ok) == len(setup)
    return correct, len(runs), failed, metrics, {
        "setup_runs": setup, "runs": runs, "summary": summary}


def measure_traced(name, seed, work, spec, info, deadline):
    """Per-layer metrics from one traced run, checked against an untraced one."""
    import layertrace

    spawn(cli_argv(["--version"]), work, work / "warmup", deadline)
    plain = run_once(spec, info, work, "untraced", deadline)
    spans_path = work / "spans.jsonl"
    traced = run_once(spec, info, work, "traced", deadline, traced_spans=spans_path)
    if plain["exit_code"] == 0 and traced["exit_code"] == 0 and (
        plain["digests"] != traced["digests"]
    ):
        traced["problems"].append("traced artifacts differ from the untraced run's")
    runs = [plain, traced]
    failed = sum(1 for r in runs if r["problems"])
    spans = layertrace.read_spans(spans_path) if spans_path.exists() else []
    metrics, extra = {}, {"runs": runs}
    if spans and failed == 0:
        values = layertrace.layer_metrics(spans)
        values["trace.untraced_wall_s"] = plain["wall_s"]
        values["trace.traced_wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        extra["computed"] = {"gemm_calls": layertrace.gemm_calls(spans)}
        extra["span_stats"] = layertrace.span_stats(spans)
        kept = WORK / "results" / f"{name}-seed{seed}-spans.jsonl"
        kept.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(spans_path, kept)
        extra["spans_file"] = str(kept.relative_to(ROOT))
    return failed == 0 and bool(metrics), len(runs), failed, metrics, extra


def unit_of(metric):
    last = metric.rsplit(".", 1)[-1]
    if metric.startswith(("translate.p_at", "sentiment.accuracy")):
        return "%"
    return {
        "s": "s", "self_s": "s", "s_per_iter": "s", "overhead_s": "s",
        "untraced_wall_s": "s", "traced_wall_s": "s",
        "mb_per_s": "MiB/s", "queries_per_s": "1/s", "tokens_per_s": "1/s",
        "maxrss_mb": "MiB", "read_mb": "MiB", "written_mb": "MiB",
        "score_matrix_mb": "MiB", "gemm_gflop": "GFLOP",
    }.get(last, "count")


def run_workload(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        info = make_inputs(spec, seed, work / "inputs")
        gen_s = time.perf_counter() - t0
        if trace:
            outcome = measure_traced(name, seed, work, spec, info, deadline)
        else:
            outcome = measure(seconds, work, spec, info, deadline)
        correct, attempted, failed, metrics, extra = outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": name, "why": spec["why"], "seed": seed, "seconds": seconds,
        "trace": trace, "environment": environment(),
        "inputs": {
            "generation_s_untimed": gen_s,
            "files": info["files"],
            "properties": {k: v for k, v in info.items() if k not in ("files", "argv")},
            "notes": INPUT_NOTES,
        },
        "computed": {**computed_counts(info), **extra.pop("computed", {})},
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "metrics": metrics, **extra,
    }
    path = write_results(name, seed, trace, record)
    return record, path


def print_table(record, path):
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']})")
    for run in record.get("runs", []):
        for problem in run["problems"]:
            print(f"  FAILED {run['label']}: {problem}")
    for key, m in record["metrics"].items():
        print(f"  {key:44s} {m['value']:14.6f} {m['unit']}")
    summary = record.get("summary", {})
    print(f"  {'failed_frac':44s} {record['failed_frac']:14.6f} ratio")
    for key in ("p_at_1", "p_at_10", "sentiment_acc"):
        if key in summary:
            print(f"  {key:44s} {summary[key]:14.6f} %")
    if "wall_s" in summary and summary["wall_s"]:
        w = summary["wall_s"]
        print(f"  wall_s over {w['n']} runs: min {w['min']:.4f} max {w['max']:.4f} s")
    print(f"  results: {path.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "xlembed" / "cli.py").is_file():
        sys.stderr.write(f"no xlembed sources at {SRC}; run from a source checkout\n")
        return 2
    os.environ.update(THREAD_ENV)  # the generator's numpy too

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record, path = run_workload(name, args.seed, args.seconds, args.trace)
        print_table(record, path)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if all(r["metrics"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
