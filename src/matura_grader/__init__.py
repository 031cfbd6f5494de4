"""Rubric-based LLM grading of two-text Austrian A-level German exams."""

from .config import ExperimentConfig, load_config
from .corpus import Corpus, ExamRecord, Rubric, load_corpus, load_rubrics, normalize_text
from .grading import ExamOutcome, aggregate, final_grade
from .metrics import EvaluationReport, GradeSeries, accuracy_and_confusion, mae, pcc, qwk
from .orchestrator import GradeOutcome, ModelAssessment, grade_candidate, parse_assessment
from .runner import run_experiment

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "EvaluationReport",
    "ExamOutcome",
    "ExamRecord",
    "ExperimentConfig",
    "GradeOutcome",
    "GradeSeries",
    "ModelAssessment",
    "Rubric",
    "accuracy_and_confusion",
    "aggregate",
    "final_grade",
    "grade_candidate",
    "load_config",
    "load_corpus",
    "load_rubrics",
    "mae",
    "normalize_text",
    "parse_assessment",
    "pcc",
    "qwk",
    "run_experiment",
]
