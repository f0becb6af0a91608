"""Claim extraction: prompt assembly, output cleanup and the length cap.

The model sees only the head of the text (first paragraphs, word-capped) and
must answer with a claim of at most ``MAX_CLAIM_WORDS`` (20) words. A
too-long answer earns one retry (``MAX_ATTEMPTS`` is 2 calls); if the retry
is still too long the answer is hard-truncated and the record says so
(``enforced``). An empty answer after the retry is a constraint violation
reported as an error event, never an exception.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from . import resources
from .records import PROMPT_PATTERNS, ErrorEvent, ProviderFailure
from .textprep import llm_input, word_tokens

PLACEHOLDER = "{TEXTO DE ENTRADA}"
MAX_CLAIM_WORDS = 20
MAX_ATTEMPTS = 2  # one initial call plus one retry

_LABEL_RE = re.compile(r"^(alega[çc][aã]o|resposta|sa[íi]da|busca|claim)\s*[:\-–]\s*", re.IGNORECASE)
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class ClaimPromptTemplate:
    id: str
    body: str

    def __post_init__(self) -> None:
        if self.body.count(PLACEHOLDER) != 1:
            raise ValueError(f"template {self.id!r} must contain {PLACEHOLDER} exactly once")

    def render(self, input_text: str) -> str:
        return self.body.replace(PLACEHOLDER, input_text)


def load_template(pattern: str = "main") -> ClaimPromptTemplate:
    if pattern not in PROMPT_PATTERNS:
        raise ValueError(f"unknown prompt pattern {pattern!r}; choose from {PROMPT_PATTERNS}")
    return ClaimPromptTemplate(id=pattern, body=resources.prompt_template(pattern))


@dataclass(frozen=True)
class ClaimOutcome:
    claim: str | None
    enforced: bool = False
    attempts: int = 0
    error: ErrorEvent | None = None


def cleanup(raw: str) -> str:
    """Normalize a model answer down to the bare claim text."""
    text = raw.strip()
    text = _LABEL_RE.sub("", text)
    text = text.strip("*`_ \t\r\n")
    quotes = resources.quote_chars()
    while text and text[0] in quotes and text[-1] in quotes and len(text) > 1:
        text = text[1:-1].strip()
    return _WS_RE.sub(" ", text).strip()


def extract_claim(
    text: str,
    generate: Callable[[str], str],
    template: ClaimPromptTemplate | None = None,
) -> ClaimOutcome:
    """Run the extraction loop for one text.

    ``generate`` maps a prompt to the model's raw completion; a
    ``ProviderFailure`` it raises becomes a ``provider_failure`` event here,
    and any other exception propagates.
    """
    template = template or load_template()
    prompt = template.render(llm_input(text))
    claim = ""
    attempts = 0
    for attempts in range(1, MAX_ATTEMPTS + 1):
        try:
            raw = generate(prompt)
        except ProviderFailure as exc:
            return ClaimOutcome(
                claim=None,
                attempts=attempts,
                error=ErrorEvent("claim_extraction", "provider_failure", str(exc)),
            )
        claim = cleanup(raw)
        if claim and len(word_tokens(claim)) <= MAX_CLAIM_WORDS:
            return ClaimOutcome(claim=claim, attempts=attempts)
    if not claim:
        return ClaimOutcome(
            claim=None,
            attempts=attempts,
            error=ErrorEvent("claim_extraction", "constraint_violation", "empty completion"),
        )
    truncated = " ".join(word_tokens(claim)[:MAX_CLAIM_WORDS])
    return ClaimOutcome(claim=truncated, enforced=True, attempts=attempts)
