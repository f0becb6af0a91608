"""Text preparation: cleanup primitives, sentence splitting and query building.

The query builder mirrors a fixed decision procedure. It removes
quotation marks and emoji from the text, then:

* 20 words or fewer: the whole text is the query (``full_text``);
* otherwise the first sentence, when it has at least 7 words
  (``first_sentence``);
* otherwise the first paragraph, when it has at least 20 words
  (``first_paragraph``);
* otherwise the first 20 words joined by single spaces (``first_20_words``).

The thresholds are the constants ``PASSTHROUGH_MAX_WORDS`` (20),
``MIN_SENTENCE_WORDS`` (7) and ``MIN_PARAGRAPH_WORDS`` (20). The head of a
text handed to the claim-extraction model is capped at
``LLM_MAX_PARAGRAPHS`` (3) paragraphs and ``LLM_MAX_WORDS`` (75) words.

Words are maximal runs of non-whitespace characters throughout.
"""

from __future__ import annotations

import re
import unicodedata

from . import resources
from .records import SchemaError

_PARAGRAPH_RE = re.compile(r"\n+")
# Scheme-prefixed URLs plus bare www. hosts; adjacent horizontal whitespace is
# consumed so removal does not leave double spaces behind.
_URL_CORE = r"(?:https?://\S+|www\.\S+)"
_URL_STRIP_RE = re.compile(rf"[ \t]*{_URL_CORE}[ \t]*", re.IGNORECASE)
_URL_FIND_RE = re.compile(_URL_CORE, re.IGNORECASE)

_EMOJI_RE = None  # built lazily from the shipped ranges

PASSTHROUGH_MAX_WORDS = 20
MIN_SENTENCE_WORDS = 7
MIN_PARAGRAPH_WORDS = 20
LLM_MAX_PARAGRAPHS = 3
LLM_MAX_WORDS = 75


def word_tokens(text: str) -> list[str]:
    """Maximal runs of non-whitespace characters, in order."""
    return text.split()


def trim_punct(token: str) -> str:
    """Strip punctuation characters from both ends of a token."""
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def strip_quotes(text: str) -> str:
    """Remove quotation-mark code points; everything else is kept in order."""
    quotes = resources.quote_chars()
    return "".join(ch for ch in text if ch not in quotes)


def _emoji_re() -> re.Pattern[str]:
    global _EMOJI_RE
    if _EMOJI_RE is None:
        parts = []
        for start, end in resources.emoji_ranges():
            if start == end:
                parts.append(re.escape(chr(start)))
            else:
                parts.append(f"{re.escape(chr(start))}-{re.escape(chr(end))}")
        _EMOJI_RE = re.compile("[" + "".join(parts) + "]")
    return _EMOJI_RE


def strip_emoji(text: str) -> str:
    """Remove pictographic code points; everything else is kept in order."""
    return _emoji_re().sub("", text)


def strip_urls(text: str) -> str:
    """Remove URLs; whitespace around each removal collapses to one space."""
    new, n = _URL_STRIP_RE.subn(" ", text)
    if not n:
        return text
    return re.sub(r" {2,}", " ", new).strip()


def find_urls(text: str) -> list[str]:
    """URLs mentioned in the text, trailing sentence punctuation trimmed."""
    found = []
    for raw in _URL_FIND_RE.findall(text):
        found.append(raw.rstrip(").,;:!?'\"”’»"))
    return found


def split_sentences(text: str) -> list[str]:
    """Rule-based Portuguese sentence splitting.

    A sentence boundary is a run of ``.!?…`` (plus closing quotes or brackets)
    followed by whitespace, unless the period ends a known abbreviation or a
    single-letter initial. Returned sentences are trimmed and non-empty.
    """
    boundary_re = re.compile(r"[.!?…]+[\)\]»”’\"']*(?=\s)")
    abbrevs = resources.abbreviations()
    sentences = []
    start = 0
    for m in boundary_re.finditer(text):
        run = m.group()
        if run[0] == "." and "!" not in run and "?" not in run and "…" not in run and run.count(".") == 1:
            before = text[start:m.start()]
            tail = re.search(r"\S+$", before)
            word = (tail.group() if tail else "") + "."
            if word.lower() in abbrevs:
                continue
            bare = word[:-1]
            if len(bare) == 1 and bare.isalpha() and bare.isupper():
                continue
        chunk = text[start:m.end()].strip()
        if chunk:
            sentences.append(chunk)
        start = m.end()
    chunk = text[start:].strip()
    if chunk:
        sentences.append(chunk)
    return sentences


def build_query(text: str) -> tuple[str, str]:
    """Derive the search query for a text. Returns (query, kind).

    Quotation marks and emoji are removed first, so a text that is already
    stripped gets the same query; a text with no word left raises
    SchemaError.
    """
    text = strip_emoji(strip_quotes(text)).strip()
    if not text:
        raise SchemaError("no words to search for")
    words = word_tokens(text)
    if len(words) <= PASSTHROUGH_MAX_WORDS:
        return text, "full_text"
    first_sentence = split_sentences(text)[0]
    if len(word_tokens(first_sentence)) >= MIN_SENTENCE_WORDS:
        return first_sentence, "first_sentence"
    first_paragraph = _PARAGRAPH_RE.split(text)[0].strip()
    if len(word_tokens(first_paragraph)) >= MIN_PARAGRAPH_WORDS:
        return first_paragraph, "first_paragraph"
    return " ".join(words[:PASSTHROUGH_MAX_WORDS]), "first_20_words"


def llm_input(text: str) -> str:
    """Head of a text for claim extraction: first paragraphs, word-capped.

    Keeps at most ``LLM_MAX_PARAGRAPHS`` paragraphs, then cuts after
    ``LLM_MAX_WORDS`` words. The result's word sequence is a prefix of the
    text's word sequence.
    """
    text = text.strip()
    paragraphs = [p for p in _PARAGRAPH_RE.split(text) if p.strip()]
    head = "\n".join(paragraphs[:LLM_MAX_PARAGRAPHS])
    tokens = list(re.finditer(r"\S+", head))
    if len(tokens) <= LLM_MAX_WORDS:
        return head
    return head[: tokens[LLM_MAX_WORDS - 1].end()]


def content_terms(text: str) -> list[str]:
    """The words of ``text`` with edge punctuation trimmed and lowercased,
    in order, dropping empty words and stopwords."""
    stop = resources.stopwords()
    terms = (trim_punct(token).lower() for token in word_tokens(text))
    return [term for term in terms if term and term not in stop]


def content_token_count(text: str) -> int:
    """Number of content tokens: emoji and URLs removed, then stopwords and
    punctuation-only tokens dropped."""
    return len(content_terms(strip_urls(strip_emoji(text))))
