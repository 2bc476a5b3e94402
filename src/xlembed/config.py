"""The run config: its schema, its checks and the constants it names.

Imports no numpy, so the CLI can parse and check its arguments, and run
its text-only commands, without loading the numeric modules. Those
modules import the constants below from here.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .corpus import parse_classes, undecodable_line

# Normalization steps (embeddings.normalize).
UNIT_ROWS = "unit"
CENTER_COLUMNS = "center"
NORMALIZE_STEPS = (UNIT_ROWS, CENTER_COLUMNS)
DEFAULT_NORMALIZE = (UNIT_ROWS, CENTER_COLUMNS, UNIT_ROWS)

# Retrieval modes (scoring, translate, mapper).
COSINE = "cosine"
CSLS = "csls"
RETRIEVAL_MODES = (COSINE, CSLS)

# Sentiment label schemes by class count (sentiment).
SCHEME_LABELS = {
    2: ("negative", "positive"),
    3: ("negative", "neutral", "positive"),
}

# P@k cutoffs (translate).
DEFAULT_KS = (1, 5, 10)

DICT_MODES = ("identical", "external-seed", "file")
MAPPER_METHODS = ("procrustes", "self-learn")
REFINE_MODES = ("none", "plain", "weighted", "weighted-relative", "meemi")


@dataclass
class SelfLearnConfig:
    induce_vocab_cutoff: int = 20000
    retrieval: str = COSINE
    max_iters: int = 50
    tol: float = 1e-6


class PipelineError(Exception):
    def __init__(self, stage: str, cause: Exception, artifacts: list):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.artifacts = list(artifacts)


# -- the config schema -----------------------------------------------------

def _check(ok, expected: str):
    """A check of a well-typed value: ValueError unless ok(value)."""
    def check(value):
        if not ok(value):
            raise ValueError(f"must be {expected}, got {value!r}")
    return check


def _one_of(options):
    return _check(lambda v: v in options, f"one of {options}")


def _each(ok, expected: str, empty=True):
    """A check naming the first item of a list that fails ok(item)."""
    def check(items):
        if not (items or empty):
            raise ValueError("must be a non-empty list, got []")
        for item in items:
            if not ok(item):
                raise ValueError(f"{str(item)!r} is not {expected}")
    return check


_POSITIVE = _check(lambda v: v >= 1, ">= 1")

# JSON types: a bool is neither an integer nor a number, and a path is a
# string naming an existing file, relative to the config's directory.
_TYPES = {
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) is int or type(v) is float and math.isfinite(v),
    "boolean": lambda v: type(v) is bool,
    "string": lambda v: type(v) is str,
    "path": lambda v: type(v) is str,
    "list of strings": lambda v: type(v) is list and all(type(x) is str for x in v),
    "list of integers": lambda v: type(v) is list,  # the check names a bad item
}

REQUIRED = object()  # default of a key that must be given

# Every key a config may set: dotted key -> (type, default, check). A key
# whose default is None may also be null. A REQUIRED key must be given
# whenever its section is, and the src and tgt sections always are.
SCHEMA = {
    "seed": ("integer", 0, _check(lambda v: v >= 0, ">= 0")),
    "src.embeddings": ("path", REQUIRED, None),
    "src.vocab": ("path", None, None),
    "tgt.embeddings": ("path", REQUIRED, None),
    "tgt.vocab": ("path", None, None),
    "normalize": (
        "list of strings",
        DEFAULT_NORMALIZE,
        _each(lambda v: v in NORMALIZE_STEPS, f"one of {', '.join(NORMALIZE_STEPS)}"),
    ),
    "tokenizer.lowercase": ("boolean", True, None),
    "dictionary.mode": ("string", "identical", _one_of(DICT_MODES)),
    "dictionary.file": ("path", None, None),
    "dictionary.k": ("integer", 100, _POSITIVE),
    "dictionary.classes": ("list of strings", None, parse_classes),
    "mapper.method": ("string", "procrustes", _one_of(MAPPER_METHODS)),
    "mapper.retrieval": (
        "string", SelfLearnConfig.retrieval, _one_of(RETRIEVAL_MODES)
    ),
    "mapper.max_iters": ("integer", SelfLearnConfig.max_iters, _POSITIVE),
    "mapper.induce_vocab_cutoff": (
        "integer", SelfLearnConfig.induce_vocab_cutoff, _POSITIVE
    ),
    "mapper.tol": ("number", SelfLearnConfig.tol, None),
    "mapper.reweight_s": ("number", None, _check(lambda v: 0 <= v <= 1, "in [0, 1]")),
    "refine.mode": ("string", "none", _one_of(REFINE_MODES)),
    "save_aligned_embeddings": ("boolean", True, None),
    "eval.translation.test_dictionary": ("path", REQUIRED, None),
    "eval.translation.ks": (
        "list of integers",
        DEFAULT_KS,
        _each(lambda k: type(k) is int and k >= 1, "an integer >= 1", empty=False),
    ),
    "eval.translation.retrieval": ("string", COSINE, _one_of(RETRIEVAL_MODES)),
    "eval.translation.exclude_identical": ("boolean", False, None),
    "eval.translation.oov_as_wrong": ("boolean", False, None),
    "eval.sentiment.train": ("path", REQUIRED, None),
    "eval.sentiment.test": ("path", REQUIRED, None),
    "eval.sentiment.scheme": ("integer", None, _one_of(tuple(SCHEME_LABELS))),
}
# Every proper prefix of a key is a section, a JSON object. Each evaluation
# section present adds a stage.
SECTIONS = {key[:i] for key in SCHEMA for i, c in enumerate(key) if c == "."}
_MISSING = object()


def check_value(key: str, value) -> None:
    """ValueError unless `value` has the type of SCHEMA key `key` and
    passes its check. A key whose default is None also takes None."""
    kind, default, check = SCHEMA[key]
    if value is None and default is None:
        return
    if not _TYPES[kind](value):
        raise ValueError(f"expected {kind}, got {value!r}")
    if check is not None:
        check(value)


def _lookup(raw: dict, dotted: str):
    value = raw
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return _MISSING
        value = value[part]
    return value


def _unknown_keys(block: dict, prefix: str = "") -> list:
    """Problems with keys and sections that SCHEMA does not name."""
    problems = []
    for name, value in block.items():
        dotted = prefix + name
        if dotted in SECTIONS and isinstance(value, dict):
            problems += _unknown_keys(value, dotted + ".")
        elif dotted in SECTIONS:
            problems.append(f"{dotted}: expected an object, got {value!r}")
        elif dotted not in SCHEMA:
            import difflib  # only on the error path: keeps it off startup

            siblings = sorted(
                {k[len(prefix):].split(".")[0] for k in SCHEMA if k.startswith(prefix)}
            )
            close = difflib.get_close_matches(name, siblings, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            problems.append(f"unknown key {dotted}{hint}")
    return problems


@dataclass
class PipelineConfig:
    """A validated run config: construction raises on any SCHEMA problem."""

    raw: dict
    base_dir: Path = field(default_factory=Path)

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(undecodable_line(path, exc)) from None
        except json.JSONDecodeError as exc:
            where = f"line {exc.lineno}: {exc.msg} at column {exc.colno}"
            raise ValueError(f"{path}: {where}") from None
        return cls(raw=raw, base_dir=path.parent)

    def get(self, key: str):
        """The value of a SCHEMA key, or its default."""
        value = _lookup(self.raw, key)
        return SCHEMA[key][1] if value is _MISSING else value

    def has(self, section: str) -> bool:
        return _lookup(self.raw, section) is not _MISSING

    def path(self, key: str) -> Optional[Path]:
        """A path key resolved against the config's directory."""
        value = self.get(key)
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else self.base_dir / p

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def validate(self) -> None:
        """Check the config against SCHEMA: one ValueError lists every
        unknown key, missing or mistyped value, failed check and missing
        file."""
        if not isinstance(self.raw, dict):
            raise ValueError("invalid pipeline config: expected a JSON object")
        problems = _unknown_keys(self.raw)
        for key, (kind, default, _) in SCHEMA.items():
            value = _lookup(self.raw, key)
            if value is _MISSING:
                section = key.rpartition(".")[0]
                required = section in ("src", "tgt") or self.has(section)
                if default is REQUIRED and required:
                    problems.append(f"missing required key {key}")
                continue
            try:
                check_value(key, value)
                is_path = kind == "path" and value is not None
                if is_path and not self.path(key).exists():
                    raise ValueError(f"no such file {value!r}")
            except ValueError as exc:
                problems.append(f"{key}: {exc}")
        mode = self.get("dictionary.mode")
        if mode in ("external-seed", "file") and self.get("dictionary.file") is None:
            problems.append(f"dictionary.file: required by dictionary.mode {mode!r}")
        if problems:
            raise ValueError("invalid pipeline config:\n  " + "\n  ".join(problems))
