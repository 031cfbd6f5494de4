"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line and
holding its stated tolerance and runtime budget. Everything runs offline on
synthetic corpora with mock clients and fallback embeddings.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from matura_grader.clients import assessment_json
from matura_grader.config import config_from_values
from matura_grader.corpus import load_corpus, load_rubrics
from matura_grader.grading import DIMENSIONS, FAIL, aggregate, final_grade
from matura_grader.metrics import (
    DIMENSION_KEYS,
    DimensionReport,
    EvaluationReport,
    GradeSeries,
    accuracy_and_confusion,
    mae,
    pcc,
    qwk,
)
from matura_grader.orchestrator import (
    CalibrationItem,
    CalibrationUser,
    CandidateUser,
    RevealGold,
    build_few_shot_script,
    build_zero_shot,
)
from matura_grader.prompts import render_reference_block, render_reveal_gold
from matura_grader.reporting import accuracy_table_row, qwk_table_row
from matura_grader.retrieval import (
    ALL_GRADES,
    BEST_AVERAGE_WORST,
    MIXED_PER_TASK,
    MOST_SIMILAR,
    RANGE_OF_EXAMPLES,
    ContextStrategy,
    FallbackEmbedder,
    TaskTextIndex,
    build_context,
    select_best_average_worst,
)
from matura_grader.runner import calibration_items, run_experiment, technique_plan
from matura_grader.synthetic import make_synthetic

from helpers import ScriptedChatClient, cosine_similarity, reference_ids


@contextmanager
def criterion(name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL {name}")
        raise
    print(f"ACCEPTANCE PASS {name} ({time.perf_counter() - start:.2f}s)")


# --- 1. metric oracle equivalence -----------------------------------------

def _oracle_qwk(pred, gold):
    n = len(pred)
    observed = sum((p - g) ** 2 / 16.0 for p, g in zip(pred, gold)) / n
    expected = sum((g - p) ** 2 / 16.0 for g in gold for p in pred) / (n * n)
    if expected == 0.0:
        return 1.0 if list(pred) == list(gold) else 0.0
    return 1.0 - observed / expected


def _oracle_pcc(pred, gold):
    try:
        return statistics.correlation(pred, gold)
    except statistics.StatisticsError:
        return None


def test_metric_oracle_equivalence():
    with criterion("metric oracle equivalence (1000 series, 1e-12)"):
        start = time.perf_counter()
        rng = random.Random(140)
        for _ in range(1000):
            n = rng.randint(2, 50)
            pred = [rng.randint(1, 5) for _ in range(n)]
            gold = [rng.randint(1, 5) for _ in range(n)]
            s = GradeSeries(tuple(pred), tuple(gold))

            assert qwk(s) == pytest.approx(_oracle_qwk(pred, gold), abs=1e-12)

            oracle_mae = sum(abs(p - g) for p, g in zip(pred, gold)) / n
            assert mae(s) == pytest.approx(oracle_mae, abs=1e-12)

            expected_pcc = _oracle_pcc(pred, gold)
            actual_pcc = pcc(s)
            if expected_pcc is None:
                assert actual_pcc is None
            else:
                assert actual_pcc == pytest.approx(expected_pcc, abs=1e-12)

            accuracy, confusion = accuracy_and_confusion(s)
            hits = sum(1 for p, g in zip(pred, gold) if p == g)
            assert accuracy == pytest.approx(hits / n, abs=1e-12)
            counts = {}
            for p, g in zip(pred, gold):
                counts[(g, p)] = counts.get((g, p), 0) + 1
            for g in range(1, 6):
                for p in range(1, 6):
                    assert confusion[g - 1][p - 1] == counts.get((g, p), 0)
        assert time.perf_counter() - start < 5.0


# --- 2. grading-rule exhaustion --------------------------------------------

def _oracle_round(total: int, parts: int) -> int:
    x = Fraction(total, parts)
    lower = x.numerator // x.denominator
    if x == lower:
        return lower
    if x - lower < Fraction(1, 2):
        return lower
    if x - lower > Fraction(1, 2):
        return lower + 1
    return lower  # exact half rounds toward the better grade


def test_grading_rule_exhaustion():
    with criterion("grading-rule exhaustion (5^3 triples + 10000 random vectors)"):
        start = time.perf_counter()
        for k1, k2, k3 in itertools.product(range(1, 6), repeat=3):
            final, reason = final_grade(k1, k2, k3)
            if 5 in (k1, k2, k3):
                assert final == FAIL
                assert reason is not None
            else:
                assert final == _oracle_round(k1 + k2 + k3, 3)
                assert reason is None

        rng = random.Random(99)

        def rank(outcome):
            return 6 if outcome.final == FAIL else outcome.final

        for _ in range(10000):
            vector = [rng.randint(1, 5) for _ in range(8)]
            sub = {"task1": dict(zip(DIMENSIONS, vector[:4])), "task2": dict(zip(DIMENSIONS, vector[4:]))}
            base = aggregate(sub)
            slot = rng.randrange(8)
            if vector[slot] < 5:
                worse = list(vector)
                worse[slot] += 1
                bumped = aggregate(
                    {"task1": dict(zip(DIMENSIONS, worse[:4])), "task2": dict(zip(DIMENSIONS, worse[4:]))}
                )
                assert rank(bumped) >= rank(base)

        for g in range(1, 6):
            uniform = aggregate({"task1": {d: g for d in DIMENSIONS}, "task2": {d: g for d in DIMENSIONS}})
            assert uniform.final == (FAIL if g == 5 else g)
        assert time.perf_counter() - start < 5.0


# --- 3. retrieval contracts -------------------------------------------------

@pytest.fixture(scope="module")
def retrieval_setup(tmp_path_factory):
    exam_dir, rubric_dir = make_synthetic(tmp_path_factory.mktemp("accept30"), n=30, seed=11)
    corpus = load_corpus(exam_dir)
    rubrics = load_rubrics(rubric_dir)
    embedder = FallbackEmbedder(128)
    index = TaskTextIndex.build(corpus, embedder)
    return corpus, rubrics, embedder, index


def _strategies():
    return (
        ContextStrategy(BEST_AVERAGE_WORST),
        ContextStrategy(MOST_SIMILAR, k=1),
        ContextStrategy(MOST_SIMILAR, k=4),
        ContextStrategy(MOST_SIMILAR, k=7),
        ContextStrategy(RANGE_OF_EXAMPLES, n=1),
        ContextStrategy(RANGE_OF_EXAMPLES, n=2),
        ContextStrategy(ALL_GRADES),
        ContextStrategy(
            MIXED_PER_TASK,
            task1=ContextStrategy(BEST_AVERAGE_WORST),
            task2=ContextStrategy(ALL_GRADES),
        ),
    )


def test_retrieval_contracts(retrieval_setup):
    corpus, _, embedder, index = retrieval_setup
    with criterion("retrieval contracts on 30-exam synthetic corpus"):
        start = time.perf_counter()

        # (a) leave-one-out for every candidate and strategy
        for candidate in corpus.records:
            for strategy in _strategies():
                selection = build_context(corpus, index, candidate, strategy)
                assert candidate.id not in [e.exam_id for e in selection.entries]

        # (b) Best-Average-Worst is identical for every candidate of a pack
        for year, pack in corpus.packs():
            base = select_best_average_worst(corpus, year, pack)
            base_ids = set(reference_ids(base))
            for candidate in corpus.pool(year, pack):
                built = build_context(corpus, index, candidate, ContextStrategy(BEST_AVERAGE_WORST))
                if candidate.id not in base_ids:
                    assert built == base
                else:
                    assert candidate.id not in [e.exam_id for e in built.entries]

        # (c) RangeOfExamples(n=1) covers every available grade with 5 texts
        for candidate in corpus.records:
            selection = build_context(corpus, index, candidate, ContextStrategy(RANGE_OF_EXAMPLES, n=1))
            pool = [r for r in corpus.pool(candidate.year, candidate.pack) if r.id != candidate.id]
            available = {r.gold.final_as_grade() for r in pool}
            for position in (1, 2):
                counts = selection.coverage[position]
                kept = [e for e in selection.entries if e.task_position == position]
                assert {grade for grade, c in counts.items() if c == 1} == available
                if len(available) == 5:
                    assert len(kept) == 5
                    assert sorted(e.final_grade for e in kept) == [1, 2, 3, 4, 5]

        # (d) MostSimilar(k) equals a brute-force full scan for k in {1,4,7}
        vectors = {
            (record.id, position): embedder.embed(record.task(position).body)
            for record in corpus.records
            for position in (1, 2)
        }
        for candidate in corpus.records:
            for k in (1, 4, 7):
                selection = build_context(corpus, index, candidate, ContextStrategy(MOST_SIMILAR, k=k))
                for position in (1, 2):
                    got = [(e.exam_id, e.similarity) for e in selection.entries if e.task_position == position]
                    scored = []
                    for record in corpus.pool(candidate.year, candidate.pack):
                        if record.id == candidate.id:
                            continue
                        scored.append(
                            (
                                record.id,
                                cosine_similarity(vectors[(candidate.id, position)], vectors[(record.id, position)]),
                            )
                        )
                    scored.sort(key=lambda item: (-item[1], item[0]))
                    assert got == scored[:k]

        assert time.perf_counter() - start < 10.0


# --- 4. few-shot protocol ---------------------------------------------------

def test_few_shot_protocol(retrieval_setup):
    corpus, rubrics, _, index = retrieval_setup
    with criterion("few-shot calibration protocol and gold-leakage check"):
        candidate = corpus.records[0]
        pool = corpus.pool(candidate.year, candidate.pack)
        exemplars = {
            grade: next(r for r in pool if r.gold.final_as_grade() == grade and r.id != candidate.id)
            for grade in (1, 2, 3, 4, 5)
        }

        def items(levels):
            return [CalibrationItem(exemplars[g], g, (1, 2)) for g in levels]

        base = build_few_shot_script(items((1, 3, 5)), "base", candidate, rubrics)
        base_levels = [t.grade_level for t in base.turns if isinstance(t, CalibrationUser)]
        assert base_levels == sorted(base_levels)

        inverted = build_few_shot_script(items((1, 3, 5)), "inverted", candidate, rubrics)
        inverted_levels = [t.grade_level for t in inverted.turns if isinstance(t, CalibrationUser)]
        assert inverted_levels == base_levels[::-1]

        mixed = build_few_shot_script(items((1, 2, 3, 4, 5)), "mixed15243", candidate, rubrics)
        mixed_levels = [t.grade_level for t in mixed.turns if isinstance(t, CalibrationUser)]
        assert mixed_levels == [1, 5, 2, 4, 3]

        for script in (base, inverted, mixed):
            calibration_count = sum(isinstance(t, CalibrationUser) for t in script.turns)
            reveal_count = sum(isinstance(t, RevealGold) for t in script.turns)
            assert reveal_count == calibration_count
            assert sum(isinstance(t, CandidateUser) for t in script.turns) == 1

        # string-level gold leakage check across every technique's script
        for cand in corpus.records:
            leaks = [
                render_reference_block(_candidate_entry(cand, 1), "R1", cand.task(1).text_type),
                render_reference_block(_candidate_entry(cand, 2), "R2", cand.task(2).text_type),
                render_reveal_gold(cand, (1, 2)),
                render_reveal_gold(cand, (1,)),
                render_reveal_gold(cand, (2,)),
            ]
            for script in _scripts_for_all_techniques(cand, corpus, index, rubrics):
                for message in script.outbound_texts():
                    for leak in leaks:
                        assert leak not in message


def _candidate_entry(record, position):
    from matura_grader.retrieval import _entry_for

    return _entry_for(record, position, None)


def _scripts_for_all_techniques(candidate, corpus, index, rubrics):
    for technique in (
        "baseline",
        "rag_best_avg_worst",
        "rag_most_similar",
        "rag_range",
        "few_all_grades",
        "few_best_worst",
        "few_mixed",
        "cot_best_worst",
    ):
        cfg = config_from_values({"technique": technique})
        plan = technique_plan(cfg)
        if plan.zero_shot:
            selection = build_context(corpus, index, candidate, plan.strategy)
            yield build_zero_shot(candidate, selection, rubrics)
        else:
            items = calibration_items(corpus, candidate, plan)
            yield build_few_shot_script(items, cfg.ordering, candidate, rubrics, cot=plan.cot)


# --- 5. end-to-end mock runs -------------------------------------------------

@pytest.fixture(scope="module")
def e2e_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept25")
    exam_dir, rubric_dir = make_synthetic(root, n=25, seed=5)
    return exam_dir, rubric_dir, root


def test_end_to_end_mock_runs(e2e_setup):
    exam_dir, rubric_dir, root = e2e_setup
    with criterion("end-to-end mock runs (echo_gold perfect, always_grade(3) counting)"):
        start = time.perf_counter()
        corpus = load_corpus(exam_dir)

        echo_cfg = config_from_values(
            {
                "corpus.path": str(exam_dir),
                "rubric.path": str(rubric_dir),
                "output.dir": str(root / "echo-out"),
                "client.policy": "echo_gold",
            }
        )
        echo_report = run_experiment(echo_cfg)
        assert echo_report.n == 25
        for key in DIMENSION_KEYS:
            assert echo_report.dimensions[key].accuracy == 1.0
            assert echo_report.dimensions[key].qwk == 1.0

        constant_cfg = config_from_values(
            {
                "corpus.path": str(exam_dir),
                "rubric.path": str(rubric_dir),
                "output.dir": str(root / "const-out"),
                "client.policy": "always_grade:3",
            }
        )
        constant_report = run_experiment(constant_cfg)
        share_of_threes = sum(1 for r in corpus.records if r.gold.final_as_grade() == 3) / len(corpus.records)
        final = constant_report.dimensions["final"]
        assert final.accuracy == share_of_threes
        for row in final.confusion:
            for column, count in enumerate(row):
                if column != 2:
                    assert count == 0
        assert sum(row[2] for row in final.confusion) == 25
        assert time.perf_counter() - start < 60.0


# --- 6. validity accounting ---------------------------------------------------

def test_validity_accounting(tmp_path):
    with criterion("validity accounting (90 valid + 11 malformed)"):
        exam_dir, rubric_dir = make_synthetic(tmp_path / "v101", n=101, seed=23)
        uniform = {d: 2 for d in DIMENSIONS}
        responses = [assessment_json(uniform, uniform)] * 90 + ["<<kein json>>"] * 11
        cfg = config_from_values(
            {
                "corpus.path": str(exam_dir),
                "rubric.path": str(rubric_dir),
                "output.dir": str(tmp_path / "v101-out"),
            }
        )
        report = run_experiment(cfg, client=ScriptedChatClient(responses))
        assert report.invalid_count == 11
        assert report.n == 90
        for key in DIMENSION_KEYS:
            assert report.dimensions[key].invalid_count == 11
            assert report.dimensions[key].n == 90


# --- 7. report format fidelity -------------------------------------------------

def _fidelity_report(technique, qwk_values, accuracy_values):
    dimensions = {}
    for key, kappa, accuracy in zip(DIMENSION_KEYS, qwk_values, accuracy_values):
        dimensions[key] = DimensionReport(
            qwk=kappa,
            mae=0.0,
            pcc=None,
            accuracy=accuracy,
            confusion=tuple((0,) * 5 for _ in range(5)),
            n=101,
            invalid_count=0,
        )
    return EvaluationReport(technique=technique, dimensions=dimensions, n=101, invalid_count=0)


def test_report_format_fidelity():
    with criterion("report format fidelity (published baseline rows, byte-correct)"):
        report = _fidelity_report(
            "baseline",
            (0.29, 0.39, 0.09, 0.41, 0.19, 0.07, 0.10, 0.23, 0.12),
            (0.208, 0.248, 0.277, 0.277, 0.287, 0.218, 0.228, 0.248, 0.218),
        )
        assert qwk_table_row(report) == "baseline & .29 & .39/.09/.41/.19 & .07/.10/.23/.12"
        assert accuracy_table_row(report) == "baseline & 20.8 & 24.8/27.7/27.7/28.7 & 21.8/22.8/24.8/21.8"


# --- 8. determinism --------------------------------------------------------------

def test_mock_run_determinism(e2e_setup):
    exam_dir, rubric_dir, root = e2e_setup
    with criterion("byte-identical metrics.csv across two identical mock runs"):
        outputs = []
        for name in ("det-one", "det-two"):
            cfg = config_from_values(
                {
                    "corpus.path": str(exam_dir),
                    "rubric.path": str(rubric_dir),
                    "output.dir": str(root / name),
                    "technique": "rag_most_similar",
                    "technique.k": "4",
                    "client.policy": "keyword_heuristic",
                    "noise.count": "1",
                    "noise.seed": "9",
                }
            )
            run_experiment(cfg)
            outputs.append((root / name / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]
