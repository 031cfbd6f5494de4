"""Experiment configuration.

Flat ``key = value`` text files, ``#`` comments. Every key has a documented
default; the canonical serialization of the effective configuration is
hashed into each report so results stay traceable to exact settings.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .clients import parse_policy
from .grading import VALID_GRADES
from .orchestrator import ORDERINGS
from .retrieval import BASELINE, BEST_AVERAGE_WORST, MOST_SIMILAR, RANGE_OF_EXAMPLES, ContextStrategy

BEST_WORST_LEVELS = (1, 3, 5)


@dataclass(frozen=True)
class TechniquePlan:
    """How one technique maps onto context building and scripting: its
    report label and either a zero-shot context strategy or calibration
    groups of (task positions, grade levels)."""

    label: str  # in TECHNIQUES, a template over k and n5 (= 5 * technique.n)
    strategy: ContextStrategy | None = None  # zero-shot context; None for few-shot
    calibration_groups: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    cot: bool = False

    @property
    def zero_shot(self) -> bool:
        return self.strategy is not None

    @property
    def needs_index(self) -> bool:
        return self.zero_shot and self.strategy.needs_index


TECHNIQUES: dict[str, TechniquePlan] = {
    "baseline": TechniquePlan("baseline", ContextStrategy(BASELINE)),
    "rag_best_avg_worst": TechniquePlan("RAG-best-worst", ContextStrategy(BEST_AVERAGE_WORST)),
    "rag_most_similar": TechniquePlan("RAG-{k}-best", ContextStrategy(MOST_SIMILAR)),
    "rag_range": TechniquePlan("RAG-{n5}-grade", ContextStrategy(RANGE_OF_EXAMPLES)),
    "few_all_grades": TechniquePlan("Few-all-grades", calibration_groups=(((1, 2), VALID_GRADES),)),
    "few_best_worst": TechniquePlan("Few-best-worst", calibration_groups=(((1, 2), BEST_WORST_LEVELS),)),
    "few_mixed": TechniquePlan(
        "Few-mixed", calibration_groups=(((1,), BEST_WORST_LEVELS), ((2,), VALID_GRADES))
    ),
    "cot_best_worst": TechniquePlan(
        "CoT-best-worst", calibration_groups=(((1, 2), BEST_WORST_LEVELS),), cot=True
    ),
}


class ConfigError(ValueError):
    pass


def _as_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def _as_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _as_float(value: str, key: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


# field annotation (a string under postponed evaluation) -> parser
_PARSERS = {"bool": _as_bool, "int": _as_int, "float": _as_float}


def _key(
    key: str,
    default: str,
    help_text: str,
    choices: tuple[str, ...] = (),
    minimum: int | None = None,
    above: float | None = None,
):
    """One config key: the field it fills, its default text, help and check
    (a tuple of choices, an inclusive minimum or an exclusive lower bound)."""
    return field(
        metadata={"key": key, "default": default, "help": help_text, "choices": choices, "minimum": minimum, "above": above}
    )


@dataclass(frozen=True)
class ExperimentConfig:
    corpus_path: str = _key("corpus.path", "corpus", "directory with one exam JSON file per exam")
    trust_stored_grades: bool = _key(
        "corpus.trust_stored_grades", "false", "keep records whose stored aggregates disagree with recomputation"
    )
    exemplars_path: str = _key("corpus.exemplars", "", "optional JSON manifest of curated exemplar ids per grade level")
    rubric_path: str = _key("rubric.path", "rubrics", "directory with one rubric JSON file per text type")
    technique: str = _key("technique", "baseline", f"one of {', '.join(TECHNIQUES)}", choices=tuple(TECHNIQUES))
    k: int = _key("technique.k", "1", "reference count per task for rag_most_similar", minimum=1)
    n: int = _key("technique.n", "1", "per-grade coverage for rag_range", minimum=1)
    ordering: str = _key(
        "ordering", "base", f"calibration grade order, one of {', '.join(ORDERINGS)}", choices=tuple(ORDERINGS)
    )
    client_kind: str = _key("client.kind", "mock", "http or mock", choices=("http", "mock"))
    client_base_url: str = _key("client.base_url", "http://localhost:11434", "chat endpoint base URL (http client)")
    client_model: str = _key("client.model", "llama3", "chat model name (http client)")
    client_policy: str = _key(
        "client.policy", "echo_gold", "mock policy: echo_gold, always_grade:<g>, keyword_heuristic"
    )
    temperature: float = _key("client.temperature", "0.0", "sampling temperature")
    seed: int = _key("client.seed", "0", "sampling seed, where the endpoint supports it")
    retries: int = _key("client.retries", "0", "reformat retries after an unparseable answer", minimum=0)
    timeout: float = _key("client.timeout", "120.0", "HTTP timeout in seconds", above=0)
    embedding_base_url: str = _key("embedding.base_url", "http://localhost:11434", "embedding endpoint base URL")
    embedding_model: str = _key("embedding.model", "", "embedding model name (remote mode)")
    embedding_fallback: bool = _key("embedding.fallback", "true", "use the deterministic offline embedder")
    embedding_dim: int = _key("embedding.dim", "128", "fallback embedding dimension", minimum=1)
    noise_count: int = _key("noise.count", "0", "random-word noise documents appended to each context", minimum=0)
    noise_seed: int = _key("noise.seed", "0", "noise generator seed")
    round_half: str = _key(
        "grading.round_half", "better", "rounding of exact .5 averages: better or worse", choices=("better", "worse")
    )
    parallelism: int = _key("runner.parallelism", "1", "concurrently graded candidates", minimum=1)
    token_budget: int = _key(
        "runner.token_budget", "100000", "approximate token budget per script (4 chars/token)", minimum=1
    )
    output_dir: str = _key("output.dir", "out", "directory for report artifacts and transcripts")

    def raw_items(self) -> list[tuple[str, str]]:
        """The effective configuration as canonical flat key/value pairs."""
        items = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            items.append((spec.metadata["key"], str(value).lower() if isinstance(value, bool) else str(value)))
        return sorted(items)


# key -> (default, help)
DEFAULTS: dict[str, tuple[str, str]] = {
    spec.metadata["key"]: (spec.metadata["default"], spec.metadata["help"]) for spec in fields(ExperimentConfig)
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; unknown keys and keys set twice are errors."""
    values: dict[str, str] = {}
    first_lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        first = first_lines.setdefault(key, lineno)
        if first != lineno:
            raise ConfigError(f"line {lineno}: config key {key!r} is already set on line {first}")
        values[key] = value.strip()
    return values


def config_from_values(values: dict[str, str]) -> ExperimentConfig:
    unknown = sorted(set(values) - DEFAULTS.keys())
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    parsed = {}
    for spec in fields(ExperimentConfig):
        meta = spec.metadata
        key = meta["key"]
        value = values.get(key, meta["default"])
        parse = _PARSERS.get(spec.type)
        if parse is not None:
            value = parse(value, key)
        # An empty directory key would read as the working directory.
        if not value and key in ("corpus.path", "rubric.path", "output.dir"):
            raise ConfigError(f"{key} must not be empty")
        if meta["choices"] and value not in meta["choices"]:
            raise ConfigError(f"{key} must be one of {', '.join(meta['choices'])}, got {value!r}")
        if meta["minimum"] is not None and value < meta["minimum"]:
            raise ConfigError(f"{key} must be >= {meta['minimum']}")
        if meta["above"] is not None and value <= meta["above"]:
            raise ConfigError(f"{key} must be > {meta['above']}, got {value!r}")
        parsed[spec.name] = value
    try:
        parse_policy(parsed["client_policy"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(**parsed)


def load_config(path: str | Path) -> ExperimentConfig:
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {file}")
    try:
        text = file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{file}: config file is not UTF-8: {exc}") from None
    try:
        return config_from_values(parse_config_text(text))
    except ConfigError as exc:
        raise ConfigError(f"{file}: {exc}") from None


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = "\n".join(f"{key} = {value}" for key, value in cfg.raw_items())
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def format_defaults() -> str:
    lines = []
    for key, (default, help_text) in DEFAULTS.items():
        lines.append(f"# {help_text}")
        lines.append(f"{key} = {default}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def technique_plan(cfg: ExperimentConfig) -> TechniquePlan:
    """The ``TECHNIQUES`` row of ``cfg.technique``, with the configured k, n
    and noise in its strategy and its label formatted."""
    plan = TECHNIQUES[cfg.technique]
    strategy = plan.strategy
    if strategy is not None:
        strategy = replace(strategy, k=cfg.k, n=cfg.n, noise_count=cfg.noise_count, noise_seed=cfg.noise_seed)
    return replace(plan, label=plan.label.format(k=cfg.k, n5=5 * cfg.n), strategy=strategy)
