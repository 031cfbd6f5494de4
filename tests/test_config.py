from __future__ import annotations

import pytest

from matura_grader.clients import parse_policy
from matura_grader.config import (
    TECHNIQUES,
    ConfigError,
    DEFAULTS,
    TechniquePlan,
    config_from_values,
    config_hash,
    format_defaults,
    load_config,
    parse_config_text,
)
from matura_grader.orchestrator import ORDERINGS
from matura_grader.retrieval import (
    BASELINE,
    BEST_AVERAGE_WORST,
    MIXED_PER_TASK,
    MOST_SIMILAR,
    RANGE_OF_EXAMPLES,
    ContextStrategy,
)
from matura_grader.runner import technique_plan


def test_defaults_build_a_config():
    cfg = config_from_values({})
    assert cfg.technique == "baseline"
    assert cfg.client_kind == "mock"
    assert cfg.parallelism == 1


def test_parse_config_text():
    values = parse_config_text("# comment\n\ntechnique = rag_most_similar\ntechnique.k = 4\n")
    assert values == {"technique": "rag_most_similar", "technique.k": "4"}


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("tecnique = baseline")


def test_parse_rejects_a_key_set_twice_naming_both_lines():
    with pytest.raises(ConfigError, match=r"^line 3: config key 'technique' is already set on line 1$"):
        parse_config_text("technique = baseline\n# later\ntechnique = few_mixed\n")
    with pytest.raises(ConfigError, match="already set on line 1"):
        parse_config_text("technique = baseline\ntechnique = baseline\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just some words")


def test_bad_values_are_errors():
    with pytest.raises(ConfigError):
        config_from_values({"technique.k": "vier"})
    with pytest.raises(ConfigError):
        config_from_values({"technique": "rag_unknown"})
    with pytest.raises(ConfigError):
        config_from_values({"ordering": "shuffled"})
    with pytest.raises(ConfigError):
        config_from_values({"corpus.trust_stored_grades": "vielleicht"})
    with pytest.raises(ConfigError):
        config_from_values({"runner.parallelism": "0"})


def test_defaults_text_round_trips():
    text = format_defaults()
    values = parse_config_text(text)
    assert set(values) == set(DEFAULTS)
    cfg_from_text = config_from_values(values)
    assert cfg_from_text == config_from_values({})


def test_config_hash_is_stable_and_sensitive():
    base = config_from_values({})
    assert config_hash(base) == config_hash(config_from_values({}))
    changed = config_from_values({"technique": "rag_range", "technique.n": "2"})
    assert config_hash(changed) != config_hash(base)
    assert len(config_hash(base)) == 64


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.conf")


def test_load_config_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_bytes(b"\xff\xfetechnique = few_mixed\n")
    with pytest.raises(ConfigError, match="config file is not UTF-8") as raised:
        load_config(path)
    assert str(raised.value).startswith(f"{path}: "), str(raised.value)


@pytest.mark.parametrize(
    "text,message",
    [
        ("technique = baseline\ntechnique = few_mixed\n", "line 2: config key 'technique' is already set on line 1"),
        ("tecnique = baseline\n", "line 1: unknown config key 'tecnique'"),
        ("technique.k = vier\n", "technique.k must be an integer, got 'vier'"),
    ],
)
def test_load_config_names_the_file_in_every_config_error(tmp_path, text, message):
    path = tmp_path / "exp.conf"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as raised:
        load_config(path)
    assert str(raised.value) == f"{path}: {message}"


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text("technique = few_mixed\nordering = inverted\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.technique == "few_mixed"
    assert cfg.ordering == "inverted"


@pytest.mark.parametrize(
    "values,label",
    [
        ({}, "baseline"),
        ({"technique": "rag_most_similar", "technique.k": "1"}, "RAG-1-best"),
        ({"technique": "rag_most_similar", "technique.k": "7"}, "RAG-7-best"),
        ({"technique": "rag_range", "technique.n": "1"}, "RAG-5-grade"),
        ({"technique": "rag_range", "technique.n": "2"}, "RAG-10-grade"),
        ({"technique": "rag_best_avg_worst"}, "RAG-best-worst"),
        ({"technique": "few_all_grades"}, "Few-all-grades"),
        ({"technique": "few_best_worst"}, "Few-best-worst"),
        ({"technique": "few_mixed"}, "Few-mixed"),
        ({"technique": "cot_best_worst"}, "CoT-best-worst"),
    ],
)
def test_technique_labels_mirror_row_names(values, label):
    assert technique_plan(config_from_values(values)).label == label


@pytest.mark.parametrize("technique", list(TECHNIQUES))
def test_technique_plan_passes_the_configured_values_to_the_strategy(technique):
    values = {"technique": technique, "technique.k": "4", "technique.n": "3", "noise.count": "2", "noise.seed": "9"}
    plan = technique_plan(config_from_values(values))
    row = TECHNIQUES[technique]
    assert (plan.calibration_groups, plan.cot) == (row.calibration_groups, row.cot)
    if row.strategy is None:
        assert plan.strategy is None
    else:
        assert plan.strategy == ContextStrategy(row.strategy.variant, k=4, n=3, noise_count=2, noise_seed=9)


@pytest.mark.parametrize(
    "policy", ["always_grade:x", "always_grade:7", "always_grade:", "echo", "echo_gold:5", "keyword_heuristic:2"]
)
def test_malformed_mock_policy_is_rejected_at_load(policy):
    with pytest.raises(ConfigError, match="malformed mock policy"):
        config_from_values({"client.policy": policy})


@pytest.mark.parametrize(
    "policy,expected",
    [
        ("echo_gold", ("echo_gold", 3)),
        ("keyword_heuristic", ("keyword_heuristic", 3)),
        ("always_grade", ("always_grade", 3)),
        ("always_grade:1", ("always_grade", 1)),
    ],
)
def test_well_formed_mock_policy_is_accepted(policy, expected):
    assert config_from_values({"client.policy": policy}).client_policy == policy
    assert parse_policy(policy) == expected


@pytest.mark.parametrize(
    "values,message",
    [
        ({"technique.k": "0"}, "technique.k must be >= 1"),
        ({"client.retries": "-1"}, "client.retries must be >= 0"),
        ({"client.kind": "grpc"}, "client.kind must be one of http, mock, got 'grpc'"),
        ({"grading.round_half": "up"}, "grading.round_half must be one of better, worse"),
        ({"client.timeout": "soon"}, "client.timeout must be a number"),
        ({"runner.token_budget": "0"}, "runner.token_budget must be >= 1"),
    ],
)
def test_checks_name_the_key(values, message):
    with pytest.raises(ConfigError, match=message):
        config_from_values(values)


@pytest.mark.parametrize("key", ["corpus.path", "rubric.path", "output.dir"])
def test_a_directory_key_must_not_be_empty(key):
    # Path("") is the working directory.
    with pytest.raises(ConfigError, match=f"^{key} must not be empty$"):
        config_from_values(parse_config_text(f"{key} =\n"))
    assert config_from_values(parse_config_text("corpus.exemplars =\n")).exemplars_path == ""


def test_orderings_are_the_orchestrator_schemes():
    for scheme in ORDERINGS:
        assert config_from_values({"ordering": scheme}).ordering == scheme


def test_every_technique_has_a_plan():
    assert set(TECHNIQUES) == {
        "baseline", "rag_best_avg_worst", "rag_most_similar", "rag_range",
        "few_all_grades", "few_best_worst", "few_mixed", "cot_best_worst",
    }
    for name in TECHNIQUES:
        plan = technique_plan(config_from_values({"technique": name}))
        assert plan.zero_shot == (plan.strategy is not None) == (not plan.calibration_groups)
        assert plan.needs_index == (name in ("rag_most_similar", "rag_range"))
        assert plan.cot == (name == "cot_best_worst")


@pytest.mark.parametrize(
    "task1,task2,needs_index",
    [
        (MOST_SIMILAR, BASELINE, True),
        (BEST_AVERAGE_WORST, RANGE_OF_EXAMPLES, True),
        (BASELINE, BEST_AVERAGE_WORST, False),
    ],
)
def test_mixed_per_task_plan_needs_an_index_when_a_sub_strategy_does(task1, task2, needs_index):
    strategy = ContextStrategy(MIXED_PER_TASK, task1=ContextStrategy(task1), task2=ContextStrategy(task2))
    assert strategy.needs_index == needs_index
    assert TechniquePlan("mixed", strategy).needs_index == needs_index


def test_config_from_values_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key") as info:
        config_from_values({"tecnique": "few_mixed", "technique.k": "3", "runner.paralelism": "2"})
    message = str(info.value)
    assert "'tecnique'" in message
    assert "'runner.paralelism'" in message
    assert "technique.k" not in message


@pytest.mark.parametrize("key", ["client.temperature", "client.timeout"])
@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
def test_non_finite_numbers_are_rejected_with_the_key(key, value):
    message = f"{key} must be a finite number, got '{value}'"
    with pytest.raises(ConfigError, match=message):
        config_from_values({key: value})
    with pytest.raises(ConfigError, match=message):
        config_from_values(parse_config_text(f"{key} = {value}\n"))


@pytest.mark.parametrize("value", ["0", "0.0", "-0.0", "-1", "-120.5"])
def test_timeout_must_be_positive(value):
    with pytest.raises(ConfigError, match="client.timeout must be > 0"):
        config_from_values({"client.timeout": value})
    with pytest.raises(ConfigError, match="client.timeout must be > 0"):
        config_from_values(parse_config_text(f"client.timeout = {value}\n"))


def test_finite_numbers_keep_their_value_and_hash():
    cfg = config_from_values(parse_config_text("client.temperature = 0.7\nclient.timeout = 0.001\n"))
    assert (cfg.temperature, cfg.timeout) == (0.7, 0.001)
    assert config_hash(config_from_values({})) == config_hash(config_from_values({"client.timeout": "120.0"}))
