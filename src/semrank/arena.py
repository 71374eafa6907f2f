"""Pairwise anonymized tournaments with per-judge Elo tables, min-max
aggregation across judges, and multiple-choice accuracy.

Matches are scheduled as all unordered model pairs crossed with all items,
shuffled with a seeded RNG, and applied to the Elo table sequentially in
that order. Each match presents the two explanations to the judge in
seeded-random order under anonymous labels "1" and "2"; the verdict is
mapped back to the real sides afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .judge import JudgeClient, build_pair_prompt, parse_verdict_reply, parsed_judgement
from .text_protocol import TaggedOutput, normalize_answer, parse_tagged

INITIAL_RATING = 1500.0
DEFAULT_K_FACTOR = 32.0

RATINGS_COLUMNS = ("model", "judge", "elo", "games")
AGGREGATE_COLUMNS = ("model", "mean_elo", "min_elo", "max_elo", "accuracy")


@dataclass(frozen=True)
class MatchRecord:
    item_id: str
    model_a: str
    model_b: str
    judge_id: str
    outcome: str  # "A", "B", or "TIE"
    presented_order: str  # "a_first" or "b_first"

    def __post_init__(self):
        if self.model_a == self.model_b:
            raise ValueError("a model cannot play itself")
        if self.outcome not in ("A", "B", "TIE"):
            raise ValueError(f"bad outcome {self.outcome!r}")


@dataclass
class EloTable:
    """Ratings for a fixed set of models, updated match by match.

    Updates are zero-sum by construction, so the rating sum stays at
    len(models) * initial rating exactly.
    """

    k_factor: float = DEFAULT_K_FACTOR
    initial: float = INITIAL_RATING
    ratings: dict[str, float] = field(default_factory=dict)
    games: dict[str, int] = field(default_factory=dict)
    update_count: int = 0

    def rating(self, model: str) -> float:
        return self.ratings.get(model, self.initial)

    def record(self, match: MatchRecord) -> None:
        r_a = self.rating(match.model_a)
        r_b = self.rating(match.model_b)
        r_a, r_b = elo_update(r_a, r_b, match.outcome, self.k_factor)
        self.ratings[match.model_a] = r_a
        self.ratings[match.model_b] = r_b
        self.games[match.model_a] = self.games.get(match.model_a, 0) + 1
        self.games[match.model_b] = self.games.get(match.model_b, 0) + 1
        self.update_count += 1


def elo_update(r_a: float, r_b: float, outcome: str,
               k: float = DEFAULT_K_FACTOR) -> tuple[float, float]:
    """Standard Elo update; outcome is A/B/TIE from model_a's perspective.

    A single signed delta is applied to both sides, which keeps the
    zero-sum invariant exact in floating point.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    score_a = {"A": 1.0, "B": 0.0, "TIE": 0.5}[outcome]
    expected_a = 1.0 / (1.0 + 10.0 ** ((r_b - r_a) / 400.0))
    delta = k * (score_a - expected_a)
    return r_a + delta, r_b - delta


def judge_pair(item: dict, explanation_a: str, explanation_b: str,
               judge_client: JudgeClient, rng: np.random.Generator,
               model_a: str = "a", model_b: str = "b") -> MatchRecord:
    """One anonymized comparison. item needs item_id and question fields.

    The two explanations go into rubric slots 1 and 2 in seeded-random
    order; an unparseable verdict is retried once, then recorded as TIE.
    """
    if not explanation_a or not explanation_b:
        raise ValueError("explanations must be non-empty")
    a_first = bool(rng.integers(0, 2) == 0)
    first, second = (explanation_a, explanation_b) if a_first \
        else (explanation_b, explanation_a)
    prompt = build_pair_prompt(item.get("question", ""), first, second)

    verdict = parsed_judgement(judge_client, prompt, parse_verdict_reply, "TIE")
    if verdict == "TIE":
        outcome = "TIE"
    elif verdict == "1":
        outcome = "A" if a_first else "B"
    else:
        outcome = "B" if a_first else "A"
    return MatchRecord(item_id=str(item["item_id"]), model_a=model_a,
                       model_b=model_b, judge_id=judge_client.name,
                       outcome=outcome,
                       presented_order="a_first" if a_first else "b_first")


@dataclass
class TournamentReport:
    tables: dict[str, EloTable]  # judge name -> table
    matches: list[MatchRecord]
    aggregate: list[dict]  # rows with AGGREGATE_COLUMNS keys


def run_tournament(models: dict[str, dict[str, str]], items: list[dict],
                   judges: list[JudgeClient], k: float = DEFAULT_K_FACTOR,
                   seed: int = 0, both_orders: bool = False,
                   accuracies: dict[str, float] | None = None) -> TournamentReport:
    """All unordered model pairs x all items, per judge, seeded schedule.

    models maps model name -> {item_id: explanation}; items must not be
    empty, and every model needs a non-empty explanation for each of them.
    accuracies (optional, per model) are carried into the aggregate report.
    """
    names = sorted(models)
    if len(names) < 2:
        raise ValueError("a tournament needs at least 2 models")
    if not items:
        raise ValueError("a tournament needs at least 1 item")
    for name in names:
        missing = [it["item_id"] for it in items if not models[name].get(str(it["item_id"]))]
        if missing:
            raise ValueError(f"model {name!r} is missing explanations (absent or "
                             f"empty) for items: {missing[:5]}")

    judge_names = [judge.name for judge in judges]
    if len(set(judge_names)) != len(judge_names):
        raise ValueError(f"judge names must be distinct, got {judge_names}")

    schedule = [(pair, item) for pair in combinations(names, 2) for item in items]
    if both_orders:
        schedule = schedule + [((b, a), item) for (a, b), item in schedule]

    tables: dict[str, EloTable] = {}
    matches: list[MatchRecord] = []
    for judge_index, (jname, judge) in enumerate(zip(judge_names, judges)):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(judge_index,)))
        order = rng.permutation(len(schedule))
        table = EloTable(k_factor=k)
        for name in names:
            table.ratings.setdefault(name, table.initial)
            table.games.setdefault(name, 0)
        for idx in order:
            (model_a, model_b), item = schedule[idx]
            record = judge_pair(
                item, models[model_a][str(item["item_id"])],
                models[model_b][str(item["item_id"])],
                judge, rng, model_a=model_a, model_b=model_b)
            table.record(record)
            matches.append(record)
        tables[jname] = table

    aggregate = []
    for name in names:
        ratings = [tables[j].rating(name) for j in tables]
        aggregate.append({
            "model": name,
            "mean_elo": float(np.mean(ratings)),
            "min_elo": float(min(ratings)),
            "max_elo": float(max(ratings)),
            "accuracy": (accuracies or {}).get(name),
        })
    aggregate.sort(key=lambda row: -row["mean_elo"])
    return TournamentReport(tables=tables, matches=matches, aggregate=aggregate)


def evaluate_accuracy(outputs: dict[str, TaggedOutput | str],
                      gold_answers: dict[str, str]) -> float:
    """Fraction of items whose extracted answer matches the gold after
    normalize_answer.

    outputs maps item_id to a TaggedOutput or raw generation text; an item
    without an output counts as wrong, and no gold answers raise.
    """
    if not gold_answers:
        raise ValueError("no gold answers given")
    hits = 0
    for item_id, gold in gold_answers.items():
        out = outputs.get(item_id) or TaggedOutput()
        if isinstance(out, str):
            out = parse_tagged(out)
        hits += int(out.risposta is not None
                    and normalize_answer(out.risposta) == normalize_answer(gold))
    return hits / len(gold_answers)

