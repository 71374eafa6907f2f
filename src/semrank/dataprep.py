"""Corpus and Q&A preparation: cleaning, paragraph dedup, overlapping
chunking, item filtering, stratified splitting, and instruction conversion.

All operations are deterministic given their seed. Near-duplicate
shingles are word k-grams from the whitespace+punctuation word tokenizer.
chunk_tokens windows a token sequence it is given; `semrank prepare`
encodes with the byte vocab tokenizer, whose ids the policy reads.
"""

from __future__ import annotations

import html
import json
import math
import re
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .text_protocol import render_tagged
from .tokenizers import word_tokenize

# Documented OCR repair table: common ligature and mojibake fixes applied
# before any other cleaning. Full OCR repair is out of scope.
OCR_SUBSTITUTIONS = {
    "ﬁ": "fi",
    "ﬂ": "fl",
    "ﬀ": "ff",
    "’": "'",
    "‘": "'",
    "“": '"',
    "”": '"',
    "­": "",    # soft hyphen
    "–": "-",
    "—": "-",
}

# Line-level filters: bare page numbers ("42", "pagina 42", "pag. 42"),
# and decorative separator rows.
_LINE_FILTERS = tuple(re.compile(p, re.IGNORECASE) for p in (
    r"^\s*(?:pagina|pag\.?)?\s*\d{1,4}\s*$",
    r"^\s*[-_=*.·]{3,}\s*$",
))

_TAG_RE = re.compile(r"<[^>\n]+>")
_IMAGE_PATTERNS = re.compile(r"figura|immagine|<img\b|!\[", re.IGNORECASE)

BRIEF_RATIONALE_CHARS = 120
NEAR_DUP_THRESHOLD = 0.9
SHINGLE_SIZE = 5

SPLIT_NAMES = ("train", "dev", "test")

PROMPT_TEMPLATE = (
    "Rispondi alla seguente domanda a scelta multipla. Ragiona nel tag "
    "<think>, spiega il ragionamento nel tag <spiegazione> e indica la "
    "lettera della risposta nel tag <risposta>.\n\n"
    "Domanda: {question}\nOpzioni:\n{options}\nRisposta:"
)


@dataclass(frozen=True)
class CorpusChunk:
    tokens: tuple
    source_title: str
    chunk_index: int
    char_span: tuple[int, int] | None = None


@dataclass(frozen=True)
class QaItem:
    question: str
    options: dict[str, str]
    answer: str
    rationale: str
    subject: str = ""
    topic: str = ""
    subtopic: str = ""
    difficulty: int = 1
    item_id: str = ""

    def __post_init__(self):
        if self.options and self.answer not in self.options:
            raise ValueError(
                f"gold answer {self.answer!r} is not an option label "
                f"{sorted(self.options)}")
        if self.difficulty not in (1, 2, 3):
            raise ValueError(f"difficulty must be 1-3, got {self.difficulty}")


def clean_text(raw: str) -> str:
    """Strip HTML tags, decode entities, apply the OCR table, and drop
    filtered lines, preserving blank-line paragraph structure."""
    text = raw
    for src, dst in OCR_SUBSTITUTIONS.items():
        text = text.replace(src, dst)
    text = _TAG_RE.sub("", text)
    text = html.unescape(text)
    kept = []
    for line in text.split("\n"):
        if any(p.match(line) for p in _LINE_FILTERS):
            continue
        kept.append(line.rstrip())
    cleaned = "\n".join(kept)
    # collapse filter-induced blank runs to single paragraph breaks
    cleaned = re.sub(r"\n{3,}", "\n\n", cleaned)
    return cleaned.strip("\n")


def split_paragraphs(text: str) -> list[str]:
    return [p.strip() for p in re.split(r"\n\s*\n", text) if p.strip()]


def _shingles(tokens: list[str]) -> set[tuple[str, ...]]:
    k = SHINGLE_SIZE
    if len(tokens) < k:
        return {tuple(tokens)} if tokens else set()
    return set(zip(*(tokens[i:] for i in range(k))))


def shingle_jaccard(a: str, b: str) -> float:
    """Jaccard similarity of word SHINGLE_SIZE-gram shingle sets."""
    sa = _shingles(word_tokenize(a))
    sb = _shingles(word_tokenize(b))
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _near_duplicate(a: set, b: set, threshold: float) -> bool:
    """Shingle Jaccard of two non-empty sets >= threshold, in float."""
    size, other_size = len(a), len(b)
    # Jaccard >= t needs |A|/|B| and |B|/|A| >= t: cheap prefilter
    if min(size, other_size) < threshold * max(size, other_size):
        return False
    common = len(a & b)
    return common / (size + other_size - common) >= threshold


def dedup_paragraphs(paragraphs: Sequence[str],
                     threshold: float = NEAR_DUP_THRESHOLD) -> list[str]:
    """Keep first occurrences; drop exact matches (normalized) and
    near-duplicates whose shingle Jaccard with an earlier survivor is
    >= threshold, which must be in (0, 1].

    The near-duplicate search is an exact prefix-filter join (Bayardo, Ma
    & Srikant, 2007). If sets A and B share c shingles and
    c / |A ∪ B| >= t, then c >= ceil(t·|X|) for X in {A, B}. Under one
    total order of shingles (tuple order), A's smallest
    |A| - ceil(t·|A|) + 1 shingles then meet B's smallest
    |B| - ceil(t·|B|) + 1: the least shared shingle lies in both. Each
    survivor is indexed by its prefix, a paragraph is compared only with
    the survivors its own prefix meets, and the prefix carries one shingle
    of slack so that float rounding in the test cannot drop a pair. The
    test itself is the quadratic scan's, so the survivors are exactly
    those of comparing every pair. An empty shingle set duplicates an
    earlier empty survivor and nothing else.
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    survivors: list[str] = []
    survivor_shingles: list[set] = []
    prefix_index: dict[tuple[str, ...], list[int]] = {}
    seen_exact: set[str] = set()
    empty_survivor = False
    for para in paragraphs:
        norm = " ".join(para.split()).casefold()
        if norm in seen_exact:
            continue
        shingles = _shingles(word_tokenize(para))
        size = len(shingles)
        if size == 0:
            if empty_survivor:
                continue
            empty_survivor = True
            prefix = []
        else:
            # min overlap ceil(t·size), less one shingle of slack, and at least 1
            min_common = max(1, math.ceil(threshold * size) - 1)
            prefix = sorted(shingles)[:size - min_common + 1]
            candidates = {j for s in prefix for j in prefix_index.get(s, ())}
            if any(_near_duplicate(shingles, survivor_shingles[j], threshold)
                   for j in candidates):
                continue
        seen_exact.add(norm)
        for s in prefix:
            prefix_index.setdefault(s, []).append(len(survivors))
        survivors.append(para)
        survivor_shingles.append(shingles)
    return survivors


def chunk_tokens(tokens: Sequence, window: int, overlap: int,
                 source_title: str = "") -> list[CorpusChunk]:
    """Overlapping windows with stride = window - overlap.

    A new chunk starts only while the previous one did not reach the end,
    so every token lands in at least one chunk and no chunk is redundant.
    """
    if not 0 <= overlap < window:
        raise ValueError(f"need 0 <= overlap < window, got {overlap}/{window}")
    tokens = list(tokens)
    n = len(tokens)
    stride = window - overlap
    starts = [0]
    while starts[-1] + window < n:
        starts.append(starts[-1] + stride)
    return [
        CorpusChunk(tokens=tuple(tokens[s:s + window]), source_title=source_title,
                    chunk_index=i, char_span=(s, min(s + window, n)))
        for i, s in enumerate(starts)
    ]


@dataclass(frozen=True)
class Rejection:
    item_id: str
    reason: str


def filter_items(items: Sequence[QaItem]) -> tuple[list[QaItem], list[Rejection]]:
    """Drop image-referencing items and missing/overly brief rationales.

    Reason codes: image_reference, missing_rationale, brief_rationale.
    """
    kept: list[QaItem] = []
    rejected: list[Rejection] = []
    for item in items:
        rationale = clean_text(item.rationale)
        if _IMAGE_PATTERNS.search(item.question) or _IMAGE_PATTERNS.search(item.rationale):
            rejected.append(Rejection(item.item_id, "image_reference"))
        elif not rationale.strip():
            rejected.append(Rejection(item.item_id, "missing_rationale"))
        elif len(rationale) < BRIEF_RATIONALE_CHARS:
            rejected.append(Rejection(item.item_id, "brief_rationale"))
        else:
            kept.append(item)
    return kept, rejected


def stratified_split(items: Sequence[QaItem],
                     ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
                     seed: int = 0) -> dict[str, list[QaItem]]:
    """Seeded per-stratum shuffle, then largest-remainder assignment.

    Strata are (subject, difficulty). Remainder ties go to the earlier
    split in (train, dev, test) order.
    """
    if len(ratios) != len(SPLIT_NAMES) or min(ratios) < 0:
        raise ValueError(f"ratios must be {len(SPLIT_NAMES)} non-negative "
                         f"fractions ({', '.join(SPLIT_NAMES)}), got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    strata: dict[tuple, list[QaItem]] = {}
    for item in items:
        strata.setdefault((item.subject, item.difficulty), []).append(item)

    rng = np.random.default_rng(seed)
    splits: dict[str, list[QaItem]] = {name: [] for name in SPLIT_NAMES}
    for stratum_key in sorted(strata):
        members = strata[stratum_key]
        order = rng.permutation(len(members))
        n = len(members)
        exact = [n * r for r in ratios]
        counts = [int(x) for x in exact]
        remainders = [x - c for x, c in zip(exact, counts)]
        leftover = n - sum(counts)
        # stable sort keeps (train, dev, test) order on remainder ties
        for split_index in sorted(range(3), key=lambda i: -remainders[i])[:leftover]:
            counts[split_index] += 1
        cursor = 0
        for name, count in zip(SPLIT_NAMES, counts):
            splits[name].extend(members[i] for i in order[cursor:cursor + count])
            cursor += count
    return splits


def format_options(options: dict[str, str]) -> str:
    return "\n".join(f"{label}) {text}" for label, text in sorted(options.items()))


def to_instruction(item: QaItem) -> tuple[str, str]:
    """(prompt, target completion) in the tagged template.

    The think block is left empty in SFT targets; producing its content is
    the policy's job.
    """
    prompt = PROMPT_TEMPLATE.format(question=item.question,
                                    options=format_options(item.options))
    completion = render_tagged(think="", spiegazione=item.rationale,
                               risposta=item.answer)
    return prompt, completion


# ---------------------------------------------------------------------------
# JSON-lines IO
# ---------------------------------------------------------------------------

def read_jsonl(path) -> list:
    """The JSON value on each non-blank line of path. A line that is not
    JSON raises ValueError naming the file and the line, counted from 1."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if line:
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: line {number} is not JSON ({exc})") from None
    return rows


def write_jsonl(path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def qa_item_from_dict(row: dict, index: int = 0) -> QaItem:
    return QaItem(
        question=row["question"],
        options=dict(row.get("options", {})),
        answer=row["answer"],
        rationale=row.get("rationale", ""),
        subject=row.get("subject", ""),
        topic=row.get("topic", ""),
        subtopic=row.get("subtopic", ""),
        difficulty=int(row.get("difficulty", 1)),
        item_id=str(row.get("item_id", index)),
    )


def qa_item_to_dict(item: QaItem) -> dict:
    return asdict(item)


def chunk_to_dict(chunk: CorpusChunk) -> dict:
    return {"tokens": list(chunk.tokens), "source_title": chunk.source_title,
            "chunk_index": chunk.chunk_index}
