"""Traced in-process run of one xlembed CLI command, and the per-layer
metrics derived from its spans.

Usage (the benchmark runs this as a child process):

    python3 perfbench/layertrace.py SPANS_JSONL <xlembed arguments...>

Timing shims replace the layer functions as imported into
`xlembed.pipeline`, `xlembed.mapper`, `xlembed.translate` and `xlembed.cli`,
plus `xlembed.scoring` itself so that the `topk_mean` calls made inside
`csls_matrix` are seen. The CLI's `main()` then runs in this process. Each
call records a span (id, name, start, end, parent) and the process's
maxrss high-water mark after the call; spans stay in memory and are written
as JSON lines when the command ends. Nothing inside `src/` is changed.
"""

import importlib
import inspect
import json
import os
import resource
import sys
import time

SHIMMED_MODULES = (
    "xlembed.pipeline",
    "xlembed.mapper",
    "xlembed.translate",
    "xlembed.cli",
    "xlembed.scoring",
)

# Span name -> function name looked up in the shimmed modules.
LAYERS = {
    "embeddings.load_embeddings": "load_embeddings",
    "embeddings.save_embeddings": "save_embeddings",
    "embeddings.normalize": "normalize",
    "translate.precision_at_k": "precision_at_k",
    "scoring.cosine_matrix": "cosine_matrix",
    "scoring.csls_matrix": "csls_matrix",
    "scoring.topk_mean": "topk_mean",
    "mapper.solve_procrustes": "solve_procrustes",
    "mapper.apply_mapping": "apply_mapping",
    "mapper.save_model": "save_model",
    "mapper.self_learn": "self_learn",
    "lexicon.build_identical_dictionary": "build_identical_dictionary",
    "lexicon.filter_by_class": "filter_by_class",
    "lexicon.load_test_dictionary": "load_test_dictionary",
    "lexicon.save_dictionary": "save_dictionary",
    "refine.average_weighted": "average_weighted",
    "refine.meemi_transform": "meemi_transform",
    "sentiment.load_sentiment_tsv": "load_sentiment_tsv",
    "sentiment.train_probe": "train_probe",
    "sentiment.eval_probe": "eval_probe",
    "corpus.scan_corpus": "scan_corpus",
    "corpus.write_vocab_tsv": "write_vocab_tsv",
    "pipeline.run_pipeline": "run_pipeline",
}

MIB = 1 << 20
FLOAT64_BYTES = 8


# -- computed counts recorded at the layer boundaries ----------------------

def _file_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _gemm(a, result):
    m, d = a["queries"].shape
    n = a["targets"].shape[0]
    return {"gemm_flop": 2 * m * n * d, "matrix_bytes": m * n * FLOAT64_BYTES}


def _matrix_out(a, result):
    return {"matrix_bytes": result.size * FLOAT64_BYTES}


def _retrieval(a, result):
    # The query GEMMs run inside translate, not through cosine_matrix;
    # queries are scored in blocks of the module's chunk size.
    import xlembed.translate as translate

    tgt = a["space"].tgt.matrix
    n_tgt, d = tgt.shape
    q = result.covered
    chunk = min(q, getattr(translate, "_QUERY_CHUNK", q))
    return {
        "queries": q,
        "gemm_flop": 2 * q * n_tgt * d,
        "matrix_bytes": chunk * n_tgt * FLOAT64_BYTES,
        "p_at": {str(k): v for k, v in result.p_at.items()},
    }


ANNOTATE = {
    "embeddings.load_embeddings": _file_bytes,
    "embeddings.save_embeddings": _file_bytes,
    "scoring.cosine_matrix": _gemm,
    "scoring.csls_matrix": _matrix_out,
    "translate.precision_at_k": _retrieval,
    "mapper.self_learn": lambda a, r: {"iterations": r.iterations},
    "lexicon.build_identical_dictionary": lambda a, r: {"pairs": len(r)},
    "lexicon.filter_by_class": lambda a, r: {"pairs": len(r)},
    "sentiment.eval_probe": lambda a, r: {"accuracy": r.accuracy},
    "corpus.scan_corpus": lambda a, r: {
        "tweets": r[1].n_tweets,
        "duplicates": r[1].n_duplicates,
        "tokens": r[1].n_tokens,
    },
}


class Tracer:
    """Holds the spans of one process; shims push and pop a parent stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def shim(self, name, fn):
        sig = inspect.signature(fn)
        annotate = ANNOTATE.get(name)

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                span["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if annotate is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = annotate(bound.arguments, result)
            return result

        return traced

    def install(self):
        """Replace every layer function found in the shimmed modules; one
        shim per original function, shared by all modules importing it."""
        shims = {}
        for modname in SHIMMED_MODULES:
            module = importlib.import_module(modname)
            for name, attr in LAYERS.items():
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                if id(fn) not in shims:
                    shims[id(fn)] = self.shim(name, fn)
                setattr(module, attr, shims[id(fn)])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# -- derivation (runs in the benchmark process; imports no xlembed) --------

def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def span_stats(spans):
    """Per span name: calls, inclusive seconds, self seconds (duration
    minus the time covered by its direct child spans) and maxrss."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                s["end"] - s["start"]
            )
    stats = {}
    for s in spans:
        dur = s["end"] - s["start"]
        st = stats.setdefault(
            s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "maxrss_mb": 0.0}
        )
        st["calls"] += 1
        st["s"] += dur
        st["self_s"] += dur - child_time.get(s["id"], 0.0)
        st["maxrss_mb"] = max(st["maxrss_mb"], s["maxrss_kb"] / 1024.0)
    return stats


def _attrs(spans, name):
    return [s.get("attrs", {}) for s in spans if s["name"] == name]


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans):
    """The per-layer metrics of BENCHMARK.json. A layer the workload never
    calls reads 0."""
    st = span_stats(spans)

    def get(name, key):
        return st.get(name, {}).get(key, 0.0)

    m = {}
    for name in LAYERS:
        m[f"{name}.s"] = get(name, "s")
    for name in ("scoring.cosine_matrix", "scoring.csls_matrix", "scoring.topk_mean"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("translate.precision_at_k", "pipeline.run_pipeline"):
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in (
        "embeddings.load_embeddings", "translate.precision_at_k",
        "mapper.self_learn", "corpus.scan_corpus", "pipeline.run_pipeline",
    ):
        m[f"{name}.maxrss_mb"] = get(name, "maxrss_mb")

    for name, key in (("embeddings.load_embeddings", "read_mb"),
                      ("embeddings.save_embeddings", "written_mb")):
        mb = sum(a["bytes"] for a in _attrs(spans, name)) / MIB
        m[f"embeddings.{key}"] = mb
        m[f"{name}.mb_per_s"] = _rate(mb, get(name, "s"))

    retrieval = _attrs(spans, "translate.precision_at_k")
    m["translate.precision_at_k.queries_per_s"] = _rate(
        sum(a["queries"] for a in retrieval), get("translate.precision_at_k", "s")
    )
    last_p = retrieval[-1]["p_at"] if retrieval else {}
    m["translate.p_at_1"] = last_p.get("1") or 0.0
    m["translate.p_at_10"] = last_p.get("10") or 0.0

    gemms = _attrs(spans, "scoring.cosine_matrix") + retrieval
    m["scoring.gemm_gflop"] = sum(a["gemm_flop"] for a in gemms) / 1e9
    matrices = gemms + _attrs(spans, "scoring.csls_matrix")
    m["scoring.score_matrix_mb"] = max(
        (a["matrix_bytes"] for a in matrices), default=0
    ) / MIB

    iters = sum(a["iterations"] for a in _attrs(spans, "mapper.self_learn"))
    m["mapper.self_learn.iterations"] = iters
    m["mapper.self_learn.s_per_iter"] = _rate(get("mapper.self_learn", "s"), iters)

    dicts = [s for s in spans if s["name"] in (
        "lexicon.build_identical_dictionary", "lexicon.filter_by_class")]
    m["lexicon.pairs"] = dicts[-1]["attrs"]["pairs"] if dicts else 0

    probes = _attrs(spans, "sentiment.eval_probe")
    m["sentiment.accuracy"] = probes[-1]["accuracy"] if probes else 0.0

    scans = _attrs(spans, "corpus.scan_corpus")
    for key in ("tweets", "duplicates", "tokens"):
        m[f"corpus.{key}"] = sum(a[key] for a in scans)
    m["corpus.tokens_per_s"] = _rate(m["corpus.tokens"], get("corpus.scan_corpus", "s"))
    return m


def gemm_calls(spans):
    """Every score-matrix GEMM with its computed GFLOP and matrix MiB."""
    return [
        {
            "span": s["name"],
            "gflop": s["attrs"]["gemm_flop"] / 1e9,
            "matrix_mib": s["attrs"]["matrix_bytes"] / MIB,
        }
        for s in spans
        if "gemm_flop" in s.get("attrs", {})
    ]


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import xlembed.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = xlembed.cli.main(cli_args)
    finally:
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
