"""Context selection for a candidate exam.

A corpus-backed similarity index plus the three reference-selection
strategies: the pack's best/most-average/worst exams as a fixed context, the
most similar texts by embedding cosine, and descending-similarity selection
until every final grade is covered n times. Noise documents of random German
words can be appended to any selection.

The index is an exact, leave-one-out full scan. Each pool takes one of two
paths, an integer path for count vectors and a float path for any other
vectors, and both give similarities bit-identical to the scalar oracle
``cosine_similarity`` of ``tests/helpers.py``; ``TaskTextIndex`` explains
both.

Embeddings come from a remote HTTP endpoint or from a deterministic
hash-based fallback so the whole pipeline runs offline.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
import re
import struct
import zlib
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, repeat
from operator import mul, neg, truediv
from pathlib import Path

from .clients import Connections
from .corpus import Corpus, ExamRecord
from .grading import VALID_GRADES

FALLBACK_DIM = 128

_TOKEN = re.compile(r"\w+", re.UNICODE)


class EmbeddingError(RuntimeError):
    pass


class FallbackEmbedder:
    """Deterministic offline embedder: hashed bag-of-token counts.

    Same text always maps to the same vector; token overlap shows up as
    cosine similarity, which is all the selection strategies need. A token
    is a ``\\w+`` run of the lowercased text, and it adds one to the bucket
    its sha256 picks. Like ``RemoteEmbedder``, it takes the text as given:
    task bodies are normalized once, when the corpus is loaded.

    ``embed`` counts the whitespace-separated words of the lowercased text
    with ``Counter``. Each distinct word is split into tokens and hashed
    once per instance; the word's buckets are remembered, and each word
    adds its count to its buckets. The counts are ints, so they are exact
    in any order, and the result equals counting the tokens of the whole
    text:

    - no code point is both whitespace and ``\\w``, so no token spans a
      whitespace split, and a text's tokens are those of its words;
    - the only context rule of ``str.lower``, the final sigma, looks no
      further than the nearest whitespace, so lowering a word alone gives
      what lowering the whole text gives.

    The memo only ever gains the same value for a key, so concurrent
    ``embed`` calls may share an instance.
    """

    def __init__(self, dim: int = FALLBACK_DIM):
        if dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        self.dim = dim
        self._word_buckets: dict[str, tuple[int, ...]] = {}

    def embed(self, text: str) -> tuple[int, ...]:
        counts = [0] * self.dim
        memo = self._word_buckets
        for word, count in Counter(text.lower().split()).items():
            buckets = memo.get(word)
            if buckets is None:
                buckets = memo[word] = tuple(
                    int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:4], "big") % self.dim
                    for token in _TOKEN.findall(word)
                )
            for bucket in buckets:
                counts[bucket] += count
        if not any(counts):
            raise EmbeddingError("cannot embed empty text")
        return tuple(counts)


class RemoteEmbedder:
    """Client for a ``POST {base_url}/api/embed`` embedding endpoint."""

    def __init__(self, base_url: str, model: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout = timeout
        self._connections = Connections()

    def embed(self, text: str) -> tuple[float, ...]:
        if not text.strip():
            raise EmbeddingError("cannot embed empty text")
        endpoint = f"{self.base_url}/api/embed"
        payload = {"model": self.model, "input": text}
        body = self._connections.post_json(endpoint, payload, self.timeout, EmbeddingError, "embedding")
        try:
            values = tuple(float(v) for v in body["embeddings"][0])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise EmbeddingError(f"embedding endpoint returned a malformed body: {endpoint} ({exc!r})") from exc
        if not values or not all(map(math.isfinite, values)):
            raise EmbeddingError(f"embedding endpoint returned a malformed body: {endpoint} (empty or non-finite vector)")
        return values

    def close(self) -> None:
        self._connections.close()


# struct's unsigned formats by width in bytes, narrowest first.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


@dataclass(frozen=True)
class _Pool:
    """One (year, pack, task position) pool as parallel tuples, sorted by id.
    Its vectors have one length and squared norms above 0.0.

    An integer pool keeps each vector once, as ints: ``counts`` holds
    them one after the other, ``vectors`` is empty, and ``columns[j]`` packs
    dimension j of vector i into slot i, ``slot`` bytes wide: the narrowest
    of struct's unsigned widths, 1, 2, 4 or 8 bytes (``B``, ``H``, ``I``,
    ``Q``), that holds the pool's largest squared norm. Any other pool keeps
    its float ``vectors``, and ``counts`` and ``columns`` are empty."""

    records: tuple[ExamRecord, ...]
    ids: tuple[str, ...]
    vectors: tuple[tuple[float, ...], ...]
    norms: tuple[float, ...]
    counts: tuple[int, ...] = ()
    columns: tuple[int, ...] = ()
    slot: int = 0

    @classmethod
    def pack(cls, records: tuple[ExamRecord, ...], vectors: tuple[tuple[int | float, ...], ...], squares: list[int | float]) -> "_Pool":
        ids = tuple(record.id for record in records)
        norms = tuple(map(math.sqrt, squares))
        flat = tuple(chain.from_iterable(vectors))
        # A squared norm, a sum of products, is an int exactly when every
        # value of its vector is.
        slot = next((width for width in _SLOT_FORMATS if max(squares) < 256**width), None)
        if slot is None or not all(isinstance(square, int) for square in squares) or min(flat) < 0:
            return cls(records, ids, vectors, norms)
        dim = len(vectors[0])
        fmt = f"<{len(records)}{_SLOT_FORMATS[slot]}"
        columns = tuple(int.from_bytes(struct.pack(fmt, *flat[j::dim]), "little") for j in range(dim))
        return cls(records, ids, (), norms, flat, columns, slot)

    def dots(self, member: int) -> tuple[float, ...]:
        """The dot product of vector ``member`` with every vector, in pool
        order. An integer pool's are exact, from one big-integer multiply-add
        per dimension; by Cauchy-Schwarz a dot product is at most the larger
        of the two squared norms, so no slot carries into the next."""
        if not self.columns:
            return tuple(sum(map(mul, self.vectors[member], values)) for values in self.vectors)
        dim, size = len(self.columns), len(self.ids)
        total = sum(map(mul, self.counts[member * dim : (member + 1) * dim], self.columns))
        return struct.unpack(f"<{size}{_SLOT_FORMATS[self.slot]}", total.to_bytes(size * self.slot, "little"))


_EMPTY_POOL = _Pool((), (), (), ())


class TaskTextIndex:
    """Immutable similarity index over task texts, one pool per
    (year, pack, task position). A query is leave-one-out: the candidate is
    a member of its own pool, found by id, and its vector, stored at build,
    is ranked against the pool's other texts; nothing is embedded at query
    time. Queries are exact full scans; a query with a limit ranks only the
    top of the scan (``heapq.nsmallest``).

    The index holds only vectors it can rank: ``build`` fails on a vector
    of another length than the index's first, or with a squared norm of
    0.0, naming its exam and task. That squared norm is computed once, with
    the products and sum ``cosine_similarity`` uses, the scalar oracle in
    ``tests/helpers.py``. The pool alone picks one of two paths for its dot
    products (``_Pool.dots``), and both rank alike, every similarity,
    ranking and tie bit-identical to the oracle:

    - Integer path, for a pool of count vectors: non-negative ints with
      squared norms below 2**64, as the fallback embedder's bucket counts
      are. One big-integer multiply-add per dimension over the packed
      columns yields the member's dot product with every pool vector at
      once. Python ints are exact at any size, so that dot product equals
      the int sum ``cosine_similarity`` computes, and the square roots and
      the division are the same float operations on both sides.
    - Float path, for any other pool, such as remote float embeddings: one
      ``sum(map(mul, ...))`` per pool vector, the products and left-to-right
      sum of ``cosine_similarity``.

    The scan stays in pure Python on purpose: importing numpy adds about
    13 MiB of resident memory, some 30% of a 300-exam mock run's peak."""

    def __init__(self, pools: dict[tuple[int, str, int], _Pool]):
        self._pools = pools

    @classmethod
    def build(cls, corpus: Corpus, embedder) -> "TaskTextIndex":
        pools: dict[tuple[int, str, int], _Pool] = {}
        dim = 0  # the length of the index's first vector
        for year, pack in corpus.packs():
            records = corpus.pool(year, pack)
            for position in (1, 2):
                vectors, squares = [], []
                for record in records:
                    try:
                        values = embedder.embed(record.task(position).body)
                        dim = dim or len(values)
                        if len(values) != dim:
                            raise EmbeddingError(f"embedding has {len(values)} dimensions, the index's first has {dim}")
                        squares.append(sum(map(mul, values, values)))
                        if squares[-1] == 0.0:  # all zeros, or squares that underflow
                            raise EmbeddingError("embedding has zero norm, so its cosine similarity is undefined")
                    except EmbeddingError as exc:
                        raise EmbeddingError(f"exam {record.id!r} task {position}: {exc}") from exc
                    vectors.append(values)
                pools[(year, pack, position)] = _Pool.pack(records, tuple(vectors), squares)
        return cls(pools)

    def query(self, candidate: ExamRecord, position: int, limit: int | None = None) -> list[tuple[ExamRecord, float]]:
        """The other texts of the candidate's (year, pack, ``position``)
        pool, ranked by similarity to the candidate's text there; ties
        broken by id. With ``limit``, only the first ``limit`` of that
        ranking, the same rows in the same order. A candidate whose id is
        not in that pool raises ``KeyError``."""
        key = (candidate.year, candidate.pack, position)
        pool = self._pools.get(key, _EMPTY_POOL)
        try:
            member = pool.ids.index(candidate.id)
        except ValueError:
            raise KeyError(f"exam {candidate.id!r} is not in the index pool {key}") from None
        similarities = map(truediv, pool.dots(member), map(mul, repeat(pool.norms[member]), pool.norms))
        # Rows are (-similarity, id, record); ids are unique in a pool, so
        # ranking never compares records, and ``nsmallest(n, rows)`` equals
        # ``sorted(rows)[:n]``. One extra row covers the candidate itself.
        rows = zip(map(neg, similarities), pool.ids, pool.records)
        ranked = sorted(rows) if limit is None else heapq.nsmallest(limit + 1, rows)
        return [(record, -negated) for negated, record_id, record in ranked if record_id != candidate.id][:limit]


@dataclass(frozen=True)
class ContextEntry:
    exam_id: str
    task_position: int | None  # None for noise documents
    body: str
    gold: dict[str, int] | None  # the 4 dimension grades of that task
    final_grade: int | None
    similarity: float | None

    @property
    def is_noise(self) -> bool:
        return self.task_position is None


@dataclass(frozen=True)
class ContextSelection:
    entries: tuple[ContextEntry, ...] = ()
    warnings: tuple[str, ...] = ()
    covered: tuple[int, ...] = ()  # the task positions a range-of-examples scan covered

    @property
    def coverage(self) -> dict[int, dict[int, int]] | None:
        """Per covered task position: final grade -> count of its entries;
        None when no position is covered."""
        if not self.covered:
            return None
        counts = Counter((entry.task_position, entry.final_grade) for entry in self.entries)
        return {position: {grade: counts[position, grade] for grade in VALID_GRADES} for position in self.covered}


BASELINE = "baseline"
BEST_AVERAGE_WORST = "best_average_worst"
MOST_SIMILAR = "most_similar"
RANGE_OF_EXAMPLES = "range_of_examples"
ALL_GRADES = "all_grades"
MIXED_PER_TASK = "mixed_per_task"

_VARIANTS = (BASELINE, BEST_AVERAGE_WORST, MOST_SIMILAR, RANGE_OF_EXAMPLES, ALL_GRADES, MIXED_PER_TASK)


@dataclass(frozen=True)
class ContextStrategy:
    variant: str
    k: int = 1
    n: int = 1
    task1: "ContextStrategy | None" = None
    task2: "ContextStrategy | None" = None
    noise_count: int = 0
    noise_seed: int = 0

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown context strategy {self.variant!r}")
        if self.k < 1 or self.n < 1:
            raise ValueError("strategy parameters k and n must be >= 1")
        if self.noise_count < 0:
            raise ValueError("noise_count must be >= 0")
        if self.variant == MIXED_PER_TASK:
            if self.task1 is None or self.task2 is None:
                raise ValueError("mixed_per_task needs task1 and task2 sub-strategies")
            if MIXED_PER_TASK in (self.task1.variant, self.task2.variant):
                raise ValueError("mixed_per_task must not nest mixed_per_task")

    @property
    def needs_index(self) -> bool:
        """Whether ``build_context`` queries the similarity index for it."""
        if self.variant == MIXED_PER_TASK:
            return self.task1.needs_index or self.task2.needs_index
        return self.variant in (MOST_SIMILAR, RANGE_OF_EXAMPLES)


def _entry_for(record: ExamRecord, position: int, similarity: float | None) -> ContextEntry:
    return ContextEntry(
        exam_id=record.id,
        task_position=position,
        body=record.task(position).body,
        gold=record.gold.task(position).as_dict(),
        final_grade=record.gold.final_as_grade(),
        similarity=similarity,
    )


def _grade_distance(record: ExamRecord, level: int, positions: tuple[int, ...] = (1, 2)) -> int:
    """Sum of |grade - level| over the sub-dimension grades of the tasks in
    ``positions``; at level 0 the plain sum of those grades."""
    return sum(abs(grade - level) for position in positions for grade in record.gold.task(position))


def _pick_distinct(eligible: list[ExamRecord], keys) -> list[ExamRecord]:
    """Greedy: for each key in turn, the not yet picked record with the
    smallest key. Records are told apart by id. Stops early when the
    eligible records run out."""
    taken: dict[str, ExamRecord] = {}
    for key in keys:
        record = min((r for r in eligible if r.id not in taken), key=key, default=None)
        if record is None:
            break
        taken[record.id] = record
    return list(taken.values())


def select_best_average_worst(
    corpus: Corpus,
    year: int,
    pack: str,
    exclude_id: str | None = None,
    positions: tuple[int, ...] = (1, 2),
) -> ContextSelection:
    """The pack's best, most-average and worst exams as fixed context.

    Best/worst by final grade with sub-dimension-sum then id tie-breaks;
    most-average minimizes the exact L1 distance to the pack's
    per-dimension means, ties to the smaller id. The distance is ranked as
    ``len(pool)`` times itself, in integers, so no float rounding breaks a tie.
    The three picks are distinct. Without ``exclude_id`` the result is the
    same for every candidate of the (year, pack).
    """
    pool = corpus.pool(year, pack)
    eligible = [r for r in pool if r.id != exclude_id]
    if len(eligible) < 3:
        besides = "" if exclude_id is None else f" besides {exclude_id!r}"
        of_pool = "" if exclude_id is None else f" of {len(pool)}"
        raise ValueError(f"need at least 3 exams in pack ({year}, {pack!r}){besides}, have {len(eligible)}{of_pool}")

    # Pack means are taken over the full pool so the notion of "average"
    # does not shift with the excluded candidate; they are kept as column
    # totals, each ``len(pool)`` times its mean.
    totals = [sum(column) for column in zip(*(r.gold.task1 + r.gold.task2 for r in pool))]

    best, worst, average = _pick_distinct(
        eligible,
        (
            lambda r: (r.gold.final_as_grade(), _grade_distance(r, 0), r.id),
            lambda r: (-r.gold.final_as_grade(), -_grade_distance(r, 0), r.id),
            lambda r: (sum(abs(len(pool) * grade - total) for grade, total in zip(r.gold.task1 + r.gold.task2, totals)), r.id),
        ),
    )
    entries = tuple(
        _entry_for(record, position, None)
        for position in positions
        for record in (best, average, worst)
    )
    return ContextSelection(entries=entries)


def select_most_similar(
    index: TaskTextIndex, candidate: ExamRecord, k: int, positions: tuple[int, ...] = (1, 2)
) -> ContextSelection:
    """Top-k most similar pool texts per task, candidate excluded."""
    entries: list[ContextEntry] = []
    warnings: list[str] = []
    for position in positions:
        ranked = index.query(candidate, position, limit=k)
        if len(ranked) < k:
            warnings.append(f"task {position}: pool has only {len(ranked)} texts, requested {k}")
        entries.extend(_entry_for(record, position, similarity) for record, similarity in ranked)
    return ContextSelection(entries=tuple(entries), warnings=tuple(warnings))


def select_range_of_examples(
    index: TaskTextIndex, candidate: ExamRecord, n: int, positions: tuple[int, ...] = (1, 2)
) -> ContextSelection:
    """Scan pool texts by descending similarity, keeping a text only while
    its final grade is still needed, until every grade 1..5 is covered n
    times or the pool runs out. Under-coverage shows in ``coverage``."""
    entries: list[ContextEntry] = []
    for position in positions:
        counts = dict.fromkeys(VALID_GRADES, 0)
        for record, similarity in index.query(candidate, position):
            grade = record.gold.final_as_grade()
            if counts[grade] >= n:
                continue
            counts[grade] += 1
            entries.append(_entry_for(record, position, similarity))
            if all(count >= n for count in counts.values()):
                break
    return ContextSelection(entries=tuple(entries), covered=positions)


def select_grade_exemplars(
    corpus: Corpus,
    year: int,
    pack: str,
    levels: tuple[int, ...],
    exclude_id: str | None = None,
    manifest: dict[int, str] | None = None,
    positions: tuple[int, ...] = (1, 2),
) -> list[tuple[int, ExamRecord]]:
    """One reference exam per requested grade level.

    A curated manifest (level -> exam id) wins when it provides a usable id;
    otherwise the exam whose grade vector over the tasks in ``positions`` is
    L1-closest to the uniform vector (g, ..., g) is chosen. Picks are
    distinct across levels.
    """
    eligible = [r for r in corpus.pool(year, pack) if r.id != exclude_id]
    manifest = manifest or {}

    def closest_to(level: int):
        preferred = manifest.get(level) or None
        return lambda r: (r.id != preferred, _grade_distance(r, level, positions), r.id)

    return list(zip(levels, _pick_distinct(eligible, [closest_to(level) for level in levels])))


@lru_cache(maxsize=1)
def word_list() -> tuple[str, ...]:
    path = Path(__file__).parent / "data" / "german_words.txt"
    return tuple(w for w in path.read_text(encoding="utf-8").split() if w)


def random_word_text(rng: random.Random, min_words: int = 120, max_words: int = 200) -> str:
    """A document made up of random German words."""
    words = word_list()
    return " ".join(rng.choice(words) for _ in range(rng.randint(min_words, max_words)))


def inject_noise(selection: ContextSelection, count: int, seed: int) -> ContextSelection:
    """Append ``count`` random-word noise documents; deterministic in seed."""
    if count == 0:
        return selection
    rng = random.Random(seed)
    noise = tuple(
        ContextEntry(
            exam_id=f"noise-{i + 1}",
            task_position=None,
            body=random_word_text(rng),
            gold=None,
            final_grade=None,
            similarity=None,
        )
        for i in range(count)
    )
    return replace(selection, entries=selection.entries + noise)


def _select(
    corpus: Corpus,
    index: TaskTextIndex,
    candidate: ExamRecord,
    strategy: ContextStrategy,
    positions: tuple[int, ...],
) -> ContextSelection:
    if strategy.variant == BASELINE:
        return ContextSelection()
    if strategy.variant == BEST_AVERAGE_WORST:
        return select_best_average_worst(
            corpus, candidate.year, candidate.pack, exclude_id=candidate.id, positions=positions
        )
    if strategy.variant == MOST_SIMILAR:
        return select_most_similar(index, candidate, strategy.k, positions=positions)
    if strategy.variant == RANGE_OF_EXAMPLES:
        return select_range_of_examples(index, candidate, strategy.n, positions=positions)
    if strategy.variant == ALL_GRADES:
        exemplars = select_grade_exemplars(
            corpus, candidate.year, candidate.pack, VALID_GRADES, exclude_id=candidate.id, positions=positions
        )
        return ContextSelection(
            entries=tuple(_entry_for(record, position, None) for position in positions for _, record in exemplars)
        )
    raise ValueError(f"strategy {strategy.variant!r} cannot be built directly")


def build_context(
    corpus: Corpus, index: TaskTextIndex, candidate: ExamRecord, strategy: ContextStrategy
) -> ContextSelection:
    """Resolve a strategy into the candidate's ContextSelection.

    The candidate itself never appears in its own selection; noise seeds are
    varied per candidate so repeated runs stay deterministic."""
    if strategy.variant == MIXED_PER_TASK:
        first = _select(corpus, index, candidate, strategy.task1, positions=(1,))
        second = _select(corpus, index, candidate, strategy.task2, positions=(2,))
        selection = ContextSelection(
            entries=first.entries + second.entries,
            warnings=first.warnings + second.warnings,
            covered=first.covered + second.covered,
        )
    else:
        selection = _select(corpus, index, candidate, strategy, positions=(1, 2))
    if strategy.noise_count:
        seed = strategy.noise_seed ^ zlib.crc32(candidate.id.encode("utf-8"))
        selection = inject_noise(selection, strategy.noise_count, seed)
    return selection
