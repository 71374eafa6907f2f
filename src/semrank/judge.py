"""Judge endpoint client, rubric prompts, reply parsing, and mock judges.

The judge is a chat-completions-style endpoint: POST a single user message
holding a rubric prompt, read back the assistant text. Two rubrics exist:
a 0-10 scoring rubric (reward variant) and a pairwise rubric (arena). Mock
judges produce replies from deterministic rules and share their logic with
the stub server in mockserve, so the wire path and the in-process path
cannot drift.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass
from typing import Protocol

from ._http import HttpStatusError, HttpTransportError, post_json
from .errors import JudgeServiceError
from .tokenizers import word_tokenize

logger = logging.getLogger(__name__)

JUDGE_URL_ENV = "SEMRANK_JUDGE_URL"
JUDGE_TOKEN_ENV = "SEMRANK_JUDGE_TOKEN"
JUDGE_MODEL_ENV = "SEMRANK_JUDGE_MODEL"

# Rubric templates, used verbatim. The bracketed section markers double as
# the extraction anchors for the deterministic stub judges.
SCORE_RUBRIC = """\
Sei un valutatore di spiegazioni didattiche. Confronta la spiegazione del \
candidato con quella di riferimento e giudicala per correttezza logica, \
chiarezza, completezza e pertinenza. Rispondi SOLO con un numero intero da 0 a 10.

[RIFERIMENTO]
{reference}
[/RIFERIMENTO]

[CANDIDATO]
{candidate}
[/CANDIDATO]

Punteggio (0-10):"""

PAIR_RUBRIC = """\
Sei un giudice imparziale. Confronta le due spiegazioni anonime per la domanda \
seguente secondo correttezza logica, chiarezza, completezza e pertinenza. \
Rispondi SOLO con "1" se la spiegazione 1 e' migliore, "2" se la spiegazione 2 \
e' migliore, oppure "TIE" se nessuna delle due e' chiaramente superiore.

[DOMANDA]
{question}
[/DOMANDA]

[SPIEGAZIONE 1]
{first}
[/SPIEGAZIONE 1]

[SPIEGAZIONE 2]
{second}
[/SPIEGAZIONE 2]

Verdetto:"""

_INT_RE = re.compile(r"\d+")
_VERDICT_RE = re.compile(r"\b(tie|pareggio|1|2)\b", re.IGNORECASE)


def build_score_prompt(candidate: str, reference: str) -> str:
    return SCORE_RUBRIC.format(candidate=candidate, reference=reference)


def build_pair_prompt(question: str, first: str, second: str) -> str:
    return PAIR_RUBRIC.format(question=question, first=first, second=second)


def parse_score_reply(reply: str) -> int | None:
    """Last integer in 0..10 found in the reply, or None."""
    hits = [int(m) for m in _INT_RE.findall(reply) if 0 <= int(m) <= 10]
    return hits[-1] if hits else None


def parse_verdict_reply(reply: str) -> str | None:
    """Last standalone verdict token in the reply mapped to '1'/'2'/'TIE'."""
    hits = _VERDICT_RE.findall(reply)
    if not hits:
        return None
    token = hits[-1].lower()
    return "TIE" if token in ("tie", "pareggio") else token


def extract_section(prompt: str, name: str) -> str:
    """Inner text of a [NAME]...[/NAME] rubric section ('' when absent)."""
    m = re.search(rf"\[{re.escape(name)}\]\n(.*?)\n\[/{re.escape(name)}\]",
                  prompt, re.DOTALL)
    return m.group(1) if m else ""


class JudgeClient(Protocol):
    def complete(self, prompt: str) -> str: ...


@dataclass
class JudgeEndpointConfig:
    url: str
    model: str = "judge"
    timeout: float = 60.0
    auth_token: str | None = None
    max_retries: int = 1

    @classmethod
    def from_env(cls, **overrides) -> "JudgeEndpointConfig":
        url = overrides.pop("url", None) or os.environ.get(JUDGE_URL_ENV)
        if not url:
            raise ValueError(f"no judge URL: set {JUDGE_URL_ENV} or pass url")
        token = overrides.pop("auth_token", None) or os.environ.get(JUDGE_TOKEN_ENV)
        model = overrides.pop("model", None) or os.environ.get(JUDGE_MODEL_ENV) or cls.model
        return cls(url=url, model=model, auth_token=token, **overrides)


class HttpJudgeClient:
    """Chat-completions client: one user message in, assistant text out."""

    def __init__(self, cfg: JudgeEndpointConfig):
        self.cfg = cfg

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        attempts = self.cfg.max_retries + 1
        last: Exception | None = None
        for attempt in range(attempts):
            try:
                reply = post_json(self.cfg.url, payload, timeout=self.cfg.timeout,
                                  auth_token=self.cfg.auth_token)
                return reply["choices"][0]["message"]["content"]
            except (HttpStatusError, HttpTransportError, KeyError,
                    IndexError, TypeError) as exc:
                last = exc
                if attempt + 1 < attempts:
                    logger.warning("retrying judge call after %s", exc)
        raise JudgeServiceError(f"judge endpoint failed: {last}") from last


def judge_reply(mode: str, prompt: str, seed: int = 0) -> str:
    """Deterministic judge behavior, shared by MockJudge and the wire stub.

    Modes: fixed-score:<n> (constant reply), prefer-longer, prefer-shorter,
    prefer-lexical-overlap, garbage (unparseable text).
    """
    if mode.startswith("fixed-score"):
        _, _, value = mode.partition(":")
        return value or "7"
    if mode == "garbage":
        return "boh, non saprei proprio dire"

    question = extract_section(prompt, "DOMANDA")
    first = extract_section(prompt, "SPIEGAZIONE 1")
    second = extract_section(prompt, "SPIEGAZIONE 2")
    if first or second:  # pairwise rubric
        if mode == "prefer-longer":
            key_a, key_b = len(first), len(second)
        elif mode == "prefer-shorter":
            key_a, key_b = -len(first), -len(second)
        elif mode == "prefer-lexical-overlap":
            ref = set(word_tokenize(question))
            key_a = len(ref & set(word_tokenize(first)))
            key_b = len(ref & set(word_tokenize(second)))
        else:
            raise ValueError(f"unknown judge mode: {mode!r}")
        if key_a > key_b:
            return "1"
        if key_b > key_a:
            return "2"
        return "TIE"

    # scoring rubric: grade candidate-vs-reference lexical overlap on 0-10
    reference = extract_section(prompt, "RIFERIMENTO")
    candidate = extract_section(prompt, "CANDIDATO")
    ref_tokens = set(word_tokenize(reference))
    if mode == "prefer-lexical-overlap":
        if not ref_tokens:
            return "0"
        overlap = len(ref_tokens & set(word_tokenize(candidate))) / len(ref_tokens)
        return str(round(10 * overlap))
    if mode in ("prefer-longer", "prefer-shorter"):
        longer = len(candidate) >= len(reference)
        wants_longer = mode == "prefer-longer"
        return "10" if longer == wants_longer else "3"
    raise ValueError(f"unknown judge mode: {mode!r}")


class MockJudge:
    """In-process judge with a deterministic rule; name appears in reports."""

    def __init__(self, mode: str, seed: int = 0):
        self.mode = mode
        self.seed = seed
        self.name = f"mock:{mode}"

    def complete(self, prompt: str) -> str:
        return judge_reply(self.mode, prompt, self.seed)


def make_judge(spec: str, cfg: JudgeEndpointConfig | None = None) -> JudgeClient:
    """Judge factory for --judges entries: 'mock:<mode>' or 'http[s]://...'."""
    if spec.startswith("mock:"):
        return MockJudge(spec.split(":", 1)[1])
    if spec.startswith(("http://", "https://")):
        base = cfg or JudgeEndpointConfig.from_env(url=spec)
        return HttpJudgeClient(JudgeEndpointConfig(
            url=spec, model=base.model, timeout=base.timeout,
            auth_token=base.auth_token, max_retries=base.max_retries))
    raise ValueError(f"unknown judge spec: {spec!r}")


def judge_name(client: JudgeClient) -> str:
    return getattr(client, "name", None) or getattr(
        getattr(client, "cfg", None), "model", None) or client.__class__.__name__
