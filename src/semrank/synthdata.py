"""Seeded synthetic data: a templated Italian-ish study corpus, Q&A items
for the prepare pipeline, and the compact cue-based tag task the desk-scale
GRPO harness trains on.

Everything here is demo/test plumbing: deterministic given the seed, sized
for the tiny byte-vocab policy, and shaped like the real inputs (plain-text
sources, Q&A JSON-lines).
"""

from __future__ import annotations

import numpy as np

from .dataprep import QaItem
from .text_protocol import render_tagged

_SUBJECTS = ("biologia", "chimica", "fisica", "matematica", "logica")

_TOPIC_NOUNS = {
    "biologia": ("la cellula", "il mitocondrio", "la membrana", "il ribosoma",
                 "l'enzima", "il nucleo"),
    "chimica": ("la molecola", "il legame covalente", "l'atomo", "la soluzione",
                "l'acido", "la base"),
    "fisica": ("la forza", "l'energia cinetica", "il campo elettrico",
               "la velocita", "la massa", "l'onda"),
    "matematica": ("la funzione", "la derivata", "l'equazione", "il limite",
                   "la frazione", "il polinomio"),
    "logica": ("la premessa", "la conclusione", "il sillogismo",
               "la negazione", "l'insieme", "la proposizione"),
}

_VERBS = ("regola", "determina", "produce", "contiene", "trasforma",
          "descrive", "misura", "definisce")

_OBJECTS = ("il trasporto di energia", "la struttura interna",
            "il risultato finale", "l'equilibrio del sistema",
            "la quantita osservata", "il processo fondamentale",
            "la relazione tra le parti", "lo scambio di materia")

ANSWER_LETTERS = ("a", "b", "c", "d")


def _sentence(rng: np.random.Generator, subject: str) -> str:
    noun = _TOPIC_NOUNS[subject][rng.integers(len(_TOPIC_NOUNS[subject]))]
    verb = _VERBS[rng.integers(len(_VERBS))]
    obj = _OBJECTS[rng.integers(len(_OBJECTS))]
    return f"{noun} {verb} {obj}."


def corpus_documents(target_chars: int = 50_000, seed: int = 0) -> list[tuple[str, str]]:
    """(title, text) documents totalling roughly target_chars characters.

    Documents are paragraphs of templated sentences, so a character-level
    model can compress them well below the uniform entropy floor.
    """
    rng = np.random.default_rng(seed)
    docs: list[tuple[str, str]] = []
    total = 0
    doc_index = 0
    while total < target_chars:
        subject = _SUBJECTS[doc_index % len(_SUBJECTS)]
        paragraphs = []
        for _ in range(int(rng.integers(3, 6))):
            n_sentences = int(rng.integers(3, 7))
            paragraphs.append(" ".join(_sentence(rng, subject)
                                       for _ in range(n_sentences)))
        text = "\n\n".join(paragraphs)
        title = f"dispensa {subject} {doc_index:02d}"
        docs.append((title, text))
        total += len(text)
        doc_index += 1
    return docs


def qa_items(n: int = 60, seed: int = 0, include_rejects: bool = False) -> list[QaItem]:
    """Q&A items shaped like the real exam data, for the prepare pipeline.

    With include_rejects, a handful of image-referencing and overly brief
    items are mixed in so the rejection log has something to say.
    """
    rng = np.random.default_rng(seed)
    items: list[QaItem] = []
    for i in range(n):
        subject = _SUBJECTS[i % len(_SUBJECTS)]
        nouns = _TOPIC_NOUNS[subject]
        noun = nouns[int(rng.integers(len(nouns)))]
        answer = ANSWER_LETTERS[int(rng.integers(4))]
        options = {letter: f"{noun} {_OBJECTS[int(rng.integers(len(_OBJECTS)))]}"
                   for letter in ANSWER_LETTERS}
        rationale = (
            f"la risposta corretta e' {answer} perche' {noun} "
            f"{_VERBS[int(rng.integers(len(_VERBS)))]} "
            f"{_OBJECTS[int(rng.integers(len(_OBJECTS)))]}. "
            + " ".join(_sentence(rng, subject) for _ in range(3)))
        items.append(QaItem(
            question=f"che cosa caratterizza {noun}?",
            options=options,
            answer=answer,
            rationale=rationale,
            subject=subject,
            topic=noun.split()[-1],
            subtopic="base",
            difficulty=int(rng.integers(1, 4)),
            item_id=f"q{i:04d}",
        ))
    if include_rejects:
        items.append(QaItem(
            question="osserva la figura 3: quale curva cresce?",
            options=dict.fromkeys(ANSWER_LETTERS, "curva"),
            answer="a", rationale="vedi figura.", subject="matematica",
            difficulty=1, item_id="reject-image"))
        items.append(QaItem(
            question="quanto fa 2 + 2?",
            options=dict.fromkeys(ANSWER_LETTERS, "numero"),
            answer="b", rationale="e' ovvio.", subject="matematica",
            difficulty=1, item_id="reject-brief"))
    return items


# ---------------------------------------------------------------------------
# The cue-based tag task: prompts carry the gold letter as a trailing cue,
# completions relay it from the cue into <spiegazione> and on to <risposta>.
# With a 40-character context window every relay hop stays in-window whether
# or not the think block has content, so supervised training can learn the
# full format and copy chain.
#
# Think blocks are empty in most targets and carry a short constant in a
# minority (THINK_FRACTION), mirroring demonstration data that only rarely
# externalizes reasoning: after SFT the greedy policy leaves think empty
# (no think reward), while the reward-shaped GRPO stage can amplify the
# minority mode it was never the argmax of. That gap is the honest headroom
# the desk-scale end-to-end run measures.
# ---------------------------------------------------------------------------

TAG_TASK_CONTEXT = 40
THINK_FRACTION = 0.15
THINK_SNIPPET = "si"


def tag_task_prompt(index: int, letter: str) -> str:
    return f"domanda {index:03d}: scegli a, b, c o d. indizio: {letter}\n"


def tag_task_explanation(letter: str) -> str:
    return f"vale {letter}"


def tag_task_completion(letter: str, think: str = "") -> str:
    return render_tagged(think, tag_task_explanation(letter), letter)


def tag_task_items(n: int, seed: int = 0, start_index: int = 0) -> list[dict]:
    """Items as dicts: item_id, prompt, completion, answer, explanation."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        index = start_index + i
        letter = ANSWER_LETTERS[int(rng.integers(4))]
        think = THINK_SNIPPET if rng.random() < THINK_FRACTION else ""
        items.append({
            "item_id": f"tag{index:04d}",
            "prompt": tag_task_prompt(index, letter),
            "completion": tag_task_completion(letter, think),
            "answer": letter,
            "explanation": tag_task_explanation(letter),
        })
    return items
