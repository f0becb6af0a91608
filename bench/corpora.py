"""Seeded synthetic corpora and cassettes for the three benchmark workloads.

Each workload is shaped like one of the paper's datasets:

* ``fakebr-articles``: Fake.br fake/true pairs of 150-450-word articles, with
  planted same-source near-duplicates, cross-label near-duplicates, truncated
  ids and a few Spanish/English records;
* ``whatsapp-chains``: COVID19.BR WhatsApp messages forwarded in chains of
  variants (word edits, forwarding prefixes, appended links), some chains
  with mixed labels, shared URLs and fact-check cassettes for a share of
  records;
* ``evidence-enrich``: MuMiN-PT/COVID19.BR short, mostly distinct messages
  that are already valid.

Texts draw on the real Portuguese stopword list plus a Zipfian vocabulary of
pseudo-words built from Portuguese syllables, so the language detector reads
them as Portuguese and unrelated texts share few shingles. The generator
writes the corpus, an incomplete-ids file, the provider cassettes the
enrichment stage will replay (via ``write_cassette``) and ``plan.json``,
which declares everything that was planted so the correctness gate can
check the program's outputs against it. The same seed gives byte-identical
files; the vocabulary itself depends on no seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from bisect import bisect
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

from evidencia import resources
from evidencia.claims import extract_claim, load_template
from evidencia.dedup import DedupConfig, exact_jaccard, shingles
from evidencia.matching import query_terms
from evidencia.cli import _read_instances
from evidencia.evalkit import TAG_FAKE, TAG_TRUE, classification_prompt, select_shots
from evidencia.providers import (
    KIND_FACTCHECK,
    KIND_LLM,
    KIND_WEB,
    FactCheckRequest,
    LlmRequest,
    WebSearchRequest,
    write_cassette,
)
from evidencia.records import NewsItem, write_news
from evidencia.textprep import build_query, content_token_count, llm_input, strip_emoji, strip_quotes, strip_urls

WORKLOADS = ("fakebr-articles", "whatsapp-chains", "evidence-enrich")
CAPTURED_AT = "2024-07-09T00:00:00Z"
THRESHOLD = DedupConfig().jaccard_threshold
MIN_CONTENT_TOKENS = 18  # validation's default floor is 15

# Record counts at the benchmark's size; tests pass smaller ones.
DEFAULT_SIZES = {"fakebr-articles": 80, "whatsapp-chains": 420, "evidence-enrich": 560}

# Shares of the enriched records per enrichment scenario, applied as exact
# counts so every seed plants the same number of each.
SCENARIO_SHARES = (
    ("direct", 0.52),
    ("claim", 0.18),
    ("claim_long", 0.08),
    ("claim_search_empty", 0.06),
    ("unrecorded_search", 0.10),
    ("hard_fail", 0.06),
)
FACTCHECK_ORIGINAL_SHARE = 0.30
FACTCHECK_CLAIM_SHARE = 0.40  # of claim-path records without an original review

# Classification answers planted per evaluated instance.
ANSWER_SHARES = (("correct", 0.85), ("wrong", 0.08), ("abstain", 0.04), ("unrecorded", 0.03))
ABSTAIN_TEXT = "Não tenho como determinar."

_FORWARD_PREFIXES = ("Encaminhada:", "*ENCAMINHADA*", "Encaminhada com frequência:",
                     "Recebi agora no grupo:", "URGENTE!!", "Repassando:")
_FORWARD_SUFFIXES = ("Compartilhem!", "Repassem para todos.", "Vejam antes que apaguem.",
                     "Divulguem ao máximo.")
_SITES = ("noticiasdopais.com.br", "portalexemplo.com.br", "jornaldaregiao.com.br",
          "folhadiaria.com.br", "gazetaonline.com.br", "diariodoestado.com.br")
_RESULT_DOMAINS = ("checagemaberta.com.br", "portalexemplo.com.br", "www.saude.gov.br",
                   "noticiasdodia.com.br", "twitter.com", "www.facebook.com", "g1.globo.com",
                   "lupa.uol.com.br", "www.aosfatos.org", "jornaldaregiao.com.br")
_PUBLISHERS = (("Lupa - UOL", "lupa.uol.com.br"), ("Aos Fatos", "aosfatos.org"),
               ("Checagem Aberta", "checagemaberta.com.br"), ("Estadão Verifica", "estadao.com.br"))


class Vocabulary:
    """Stopwords plus Zipfian pseudo-words; identical for every seed.

    Pseudo-words come from a character-trigram chain over the words of the
    shipped Portuguese language seed, so they spell like Portuguese and the
    detector reads even short texts as Portuguese, while tens of thousands
    of distinct words keep unrelated texts from sharing many shingles.
    """

    def __init__(self, size: int = 30000):
        seed_words = set(re.findall(r"[a-zà-öø-ÿ]+", resources.language_seed("pt").lower()))
        follow: dict[str, list[str]] = {}
        for word in sorted(seed_words):
            chars = f"^^{word}$"
            for i in range(2, len(chars)):
                follow.setdefault(chars[i - 2 : i], []).append(chars[i])
        rng = random.Random(20250806)
        seen = set(resources.stopwords()) | seed_words
        words: list[str] = []
        while len(words) < size:
            context, word = "^^", ""
            while len(word) <= 14:
                ch = rng.choice(follow[context])
                if ch == "$":
                    break
                word += ch
                context = context[1] + ch
            if 4 <= len(word) <= 14 and word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        self._cum = list(accumulate(1.0 / (rank + 3) for rank in range(len(words))))
        # The list file is frequency-ordered, so a Zipf law over it is plausible.
        self.stopwords = resources.resource_lines("stopwords_pt.txt")
        self._stop_cum = list(accumulate(1.0 / (rank + 1) for rank in range(len(self.stopwords))))

    def content_word(self, rng: random.Random) -> str:
        return self.words[bisect(self._cum, rng.random() * self._cum[-1])]

    def word(self, rng: random.Random) -> str:
        if rng.random() < 0.45:
            return self.stopwords[bisect(self._stop_cum, rng.random() * self._stop_cum[-1])]
        return self.content_word(rng)

    def sentence(self, rng: random.Random, low: int = 8, high: int = 20) -> str:
        words = [self.word(rng) for _ in range(rng.randint(low, high))]
        words[0] = words[0][:1].upper() + words[0][1:]
        return " ".join(words) + rng.choice((".", ".", ".", ".", "!", "?"))

    def text(self, rng: random.Random, min_words: int, max_words: int, paragraphs: bool = False) -> str:
        """Sentences up to a word count drawn from the range, always with
        enough content tokens to pass validation's short-text filter."""
        target = rng.randint(min_words, max_words)
        sentences: list[str] = []
        count = 0
        while count < target or content_token_count(" ".join(sentences)) < MIN_CONTENT_TOKENS:
            sentence = self.sentence(rng)
            sentences.append(sentence)
            count += len(sentence.split())
        if not paragraphs:
            return " ".join(sentences)
        paras, i = [], 0
        while i < len(sentences):
            step = rng.randint(3, 6)
            paras.append(" ".join(sentences[i : i + step]))
            i += step
        return "\n".join(paras)


@lru_cache(maxsize=1)
def vocabulary() -> Vocabulary:
    return Vocabulary()


@dataclass
class Plan:
    """What the generator planted; the correctness gate checks against it."""

    workload: str
    seed: int
    records: int
    validate_provider: bool
    near_dup_pairs: list[list[str]] = field(default_factory=list)
    label_conflicts: list[list[str]] = field(default_factory=list)
    external_conflicts: list[str] = field(default_factory=list)
    shared_url_conflicts: list[str] = field(default_factory=list)
    incomplete_ids: list[str] = field(default_factory=list)
    expected_removed: list[str] = field(default_factory=list)
    scenarios: dict[str, int] = field(default_factory=dict)
    factcheck_original: int = 0
    factcheck_claim: int = 0

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=1, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Plan":
        return cls(**json.loads(path.read_text(encoding="utf-8")))


def edit_words(rng: random.Random, text: str, share: float) -> str:
    """Replace about ``share`` of the words, keeping paragraph breaks."""
    vocab = vocabulary()
    lines = []
    for line in text.split("\n"):
        words = line.split(" ")
        for i in range(len(words)):
            if i and rng.random() < share:
                words[i] = vocab.content_word(rng)
        lines.append(" ".join(words))
    return "\n".join(lines)


def jaccard(a: str, b: str) -> float:
    size = DedupConfig().shingle_size
    return exact_jaccard(shingles(a, size), shingles(b, size))


def _exact_counts(n: int, shares: tuple[tuple[str, float], ...]) -> list[str]:
    """Labels for ``n`` items in the given shares; the first label absorbs rounding."""
    counts = {name: round(share * n) for name, share in shares[1:]}
    first = shares[0][0]
    counts[first] = n - sum(counts.values())
    return [name for name, _ in shares for _ in range(counts[name])]


# ----------------------------------------------------------------- corpora

def _articles(rng: random.Random, plan: Plan, n_records: int) -> list[NewsItem]:
    vocab = vocabulary()
    pairs = max(8, n_records // 2)
    n_same_source = max(1, pairs // 40)
    n_cross_label = max(1, pairs // 30)
    n_foreign = max(1, pairs // 60)
    n_truncated = max(1, pairs // 60)
    base = pairs - n_same_source - n_cross_label
    items: list[NewsItem] = []
    url = lambda label, n: f"https://{_SITES[n % len(_SITES)]}/{label}/materia-{n:05d}"

    def article() -> str:
        return vocab.text(rng, 150, 450, paragraphs=True)

    def pair(n: int, fake_text: str, true_text: str, fake_url: str, true_url: str) -> None:
        items.append(NewsItem(id=f"fake_{n:05d}", corpus="fakebr", text=fake_text, label="fake",
                              pair_id=f"p_{n:05d}", source_url=fake_url))
        items.append(NewsItem(id=f"true_{n:05d}", corpus="fakebr", text=true_text, label="true",
                              pair_id=f"p_{n:05d}", source_url=true_url))

    for n in range(1, base + 1):
        pair(n, article(), article(), url("fake", n), url("true", n))

    # Foreign-language members are removed by the language filter; the
    # orphan sweep then removes their partners.
    index = {it.id: i for i, it in enumerate(items)}
    for k, n in enumerate(rng.sample(range(1, base + 1), n_foreign)):
        idx = index[f"true_{n:05d}"]
        items[idx] = replace(items[idx], text=_foreign_text(rng, "es" if k % 2 == 0 else "en"))
        plan.expected_removed += [f"true_{n:05d}", f"fake_{n:05d}"]
    foreign = set(plan.expected_removed)
    candidates = [n for n in range(1, base + 1) if f"fake_{n:05d}" not in foreign]
    picks = rng.sample(candidates, n_truncated + n_same_source + n_cross_label)
    truncated = picks[:n_truncated]
    same_source = picks[n_truncated : n_truncated + n_same_source]
    cross = picks[n_truncated + n_same_source :]
    by_id = {it.id: it for it in items}

    for n in truncated:
        plan.incomplete_ids.append(f"fake_{n:05d}")
        plan.expected_removed += [f"fake_{n:05d}", f"true_{n:05d}"]

    next_n = base + 1
    # Same-source near-duplicates: a later pair re-publishes a true article
    # from the same URL; validation keeps the lowest id and the orphan sweep
    # removes the duplicate's partner.
    for n in same_source:
        original = by_id[f"true_{n:05d}"]
        copy = edit_words(rng, original.text, 0.02)
        pair(next_n, article(), copy, url("fake", next_n), original.source_url)
        plan.near_dup_pairs.append([original.id, f"true_{next_n:05d}"])
        plan.expected_removed += [f"true_{next_n:05d}", f"fake_{next_n:05d}"]
        next_n += 1
    # Cross-label near-duplicates: a fake article that rewrites a true one
    # from another pair; validation queues the cluster for review.
    for n in cross:
        original = by_id[f"true_{n:05d}"]
        copy = edit_words(rng, original.text, 0.03)
        pair(next_n, copy, article(), url("fake", next_n), url("true", next_n))
        plan.near_dup_pairs.append([original.id, f"fake_{next_n:05d}"])
        plan.label_conflicts.append([original.id, f"fake_{next_n:05d}"])
        next_n += 1

    # Shared-URL conflicts: one fake and one true article cite the same link.
    kept = [n for n in range(1, base + 1) if f"fake_{n:05d}" not in set(plan.expected_removed)
            and n not in cross]
    for k in range(max(1, pairs // 50)):
        a, b = rng.sample(kept, 2)
        link = f"https://{_SITES[k % len(_SITES)]}/compartilhado/link-{k:03d}"
        for rid in (f"fake_{a:05d}", f"true_{b:05d}"):
            items[index[rid]] = replace(items[index[rid]], text=f"{items[index[rid]].text}\nFonte: {link} ")
        plan.shared_url_conflicts.append(link)
        kept = [n for n in kept if n not in (a, b)]
    items.sort(key=lambda it: it.id)
    return items


def _foreign_text(rng: random.Random, lang: str) -> str:
    seed_text = resources.language_seed(lang).replace("\n", " ")
    sentences = [s.strip() + "." for s in seed_text.split(".") if len(s.split()) > 4]
    picked = [rng.choice(sentences) for _ in range(14)]
    return " ".join(picked)


def _chains(rng: random.Random, plan: Plan, n_records: int) -> list[NewsItem]:
    vocab = vocabulary()
    items: list[NewsItem] = []
    shared_links = [f"https://bit.ly/{_slug(rng)}" for _ in range(max(2, n_records // 60))]
    link_labels: dict[str, set[str]] = {}
    chain_no = 0
    while len(items) < n_records:
        chain_no += 1
        size = min(n_records - len(items), rng.choice((1, 2, 2, 3, 3, 4, 5, 6, 8)))
        label = rng.choice(("fake", "fake", "true"))
        root = vocab.text(rng, 35, 70)
        link = rng.choice(shared_links) if rng.random() < 0.3 else None
        mixed = size > 1 and rng.random() < 0.15
        members = []
        for v in range(size):
            text = root if v == 0 else _forward_variant(rng, root)
            member_label = label
            if mixed and v == size - 1:
                member_label = "true" if label == "fake" else "fake"
            if link and v > 0 and rng.random() < 0.6:
                text = f"{text} {link} "
                link_labels.setdefault(link, set()).add(member_label)
            rid = f"cv_{chain_no:05d}_{v}"
            members.append((rid, text, member_label))
            items.append(NewsItem(id=rid, corpus="covid19br", text=text, label=member_label))
        plan.near_dup_pairs += [[members[i][0], members[j][0]]
                                for i in range(len(members)) for j in range(i + 1, len(members))]
        if mixed:
            plan.label_conflicts.append([members[0][0], members[-1][0]])
    plan.shared_url_conflicts = sorted(link for link, labels in link_labels.items() if len(labels) > 1)
    # A few foreign-language forwards for the language filter.
    for k in range(max(1, n_records // 100)):
        rid = f"cv_x{k:04d}"
        items.append(NewsItem(id=rid, corpus="covid19br", text=_foreign_text(rng, "es" if k % 2 else "en"),
                              label="fake"))
        plan.expected_removed.append(rid)
    items.sort(key=lambda it: it.id)
    return items


def _forward_variant(rng: random.Random, root: str) -> str:
    text = edit_words(rng, root, rng.choice((0.0, 0.02, 0.04)))
    if rng.random() < 0.5:
        text = f"{rng.choice(_FORWARD_PREFIXES)} {text}"
    if rng.random() < 0.4 or text == root:
        text = f"{text} {rng.choice(_FORWARD_SUFFIXES)}"
    return text


def _slug(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijkmnopqrstuvwxyz23456789") for _ in range(7))


def _short_messages(rng: random.Random, plan: Plan, n_records: int) -> list[NewsItem]:
    vocab = vocabulary()
    items = []
    for n in range(n_records):
        corpus = "mumin_pt" if n % 3 else "covid19br"
        label = "fake" if rng.random() < 0.6 else "true"
        items.append(NewsItem(id=f"{'mm' if corpus == 'mumin_pt' else 'cv'}_{n:05d}", corpus=corpus,
                              text=vocab.text(rng, 28, 60), label=label,
                              published_at=f"2020-{1 + n % 12:02d}-{1 + n % 28:02d}"))
    # A handful of retweet-style near-duplicates and shared-URL conflicts.
    picks = rng.sample(range(n_records), 4 * max(1, n_records // 300))
    half = len(picks) // 2
    for a, b in zip(picks[0:half:2], picks[1:half:2]):
        items[b] = replace(items[b], label=items[a].label, text=f"RT {items[a].text}")
        plan.near_dup_pairs.append([items[a].id, items[b].id])
    for a, b in zip(picks[half::2], picks[half + 1::2]):
        link = f"https://t.co/{_slug(rng)}"
        for idx, label in ((a, "fake"), (b, "true")):
            items[idx] = replace(items[idx], label=label, text=f"{items[idx].text} {link} ")
        plan.shared_url_conflicts.append(link)
    return items


# ---------------------------------------------------------------- cassettes

def _web_item(title: str, snippet: str, link: str) -> dict:
    plain = lambda s: s.replace("<b>", "").replace("</b>", "")
    return {"title": plain(title), "htmlTitle": title, "link": link,
            "snippet": plain(snippet), "htmlSnippet": snippet}


def _generic_item(rng: random.Random) -> dict:
    domain = rng.choice(_RESULT_DOMAINS)
    return _web_item("Principais <b>notícias</b> do dia no portal",
                     "Veja as <b>notícias</b> mais lidas de hoje em política, economia e saúde.",
                     f"https://{domain}/ultimas/{_slug(rng)}")


def _matching_item(rng: random.Random, query: str) -> dict:
    domain = rng.choice(_RESULT_DOMAINS)
    return _web_item(f"Checagem: <b>{query}</b>",
                     "Entenda o que é verdadeiro e o que é falso na mensagem que circula nas redes.",
                     f"https://{domain}/verificacao/{_slug(rng)}")


def _review_body(rng: random.Random, claim: str, rating: str) -> dict:
    name, site = rng.choice(_PUBLISHERS)
    year = rng.randint(2018, 2023)
    return {"claims": [{
        "text": claim[:120],
        "claimant": "mensagens de WhatsApp",
        "claimDate": f"{year}-03-08",
        "claimReview": [{
            "publisher": {"name": name, "site": site},
            "url": f"https://{site}/checagem/{_slug(rng)}",
            "reviewDate": f"{year}-03-10",
            "textualRating": rating,
            "languageCode": "pt-BR",
        }],
    }]}


class CassetteWriter:
    """Records provider responses in the fixture format, keyed by request."""

    def __init__(self, directory: Path):
        self.directory = directory

    def web(self, query: str, items: list[dict]) -> None:
        self._save(KIND_WEB, WebSearchRequest(query=query).payload(), {"items": items})

    def factcheck(self, query: str, body: dict) -> None:
        self._save(KIND_FACTCHECK, FactCheckRequest(query=query).payload(), body)

    def llm(self, prompt: str, answer: str) -> None:
        body = {"candidates": [{"content": {"parts": [{"text": answer}]}, "finishReason": "STOP"}]}
        self._save(KIND_LLM, LlmRequest(prompt=prompt).payload(), body)

    def _save(self, kind: str, payload: dict, body: dict) -> None:
        write_cassette(self.directory, kind, payload, body, CAPTURED_AT)


def _query(text: str) -> str:
    return build_query(strip_emoji(strip_quotes(text)))[0]


def _hash_order(items: list, salt: str) -> list:
    """Items with an ``id`` in a seeded order independent of their position."""
    return sorted(items, key=lambda it: hashlib.sha256(f"{salt}:{it.id}".encode()).hexdigest())


def _write_enrichment_cassettes(rng: random.Random, plan: Plan, items: list[NewsItem], out: CassetteWriter) -> None:
    """One scripted enrichment scenario per record the enrich stage will see.

    A share of records gets a recorded fact-check review of its query; when
    validation cross-checks fact-checks, a planted few of those reviews
    contradict the stored label.
    """
    template = load_template()
    removed = set(plan.expected_removed)
    survivors = [it for it in items if it.id not in removed]
    order = _hash_order(survivors, f"scenario:{plan.seed}")
    scenarios = dict(zip((it.id for it in order), _exact_counts(len(order), SCENARIO_SHARES)))
    plan.scenarios = {name: list(scenarios.values()).count(name) for name, _ in SCENARIO_SHARES}
    reviewed = _hash_order(survivors, f"factcheck:{plan.seed}")[: round(FACTCHECK_ORIGINAL_SHARE * len(order))]
    reviewed_ids = {it.id for it in reviewed}
    claim_path = ("claim", "claim_long", "claim_search_empty", "unrecorded_search")
    fallback_pool = [it for it in order if scenarios[it.id] in claim_path and it.id not in reviewed_ids]
    fallback_ids = {it.id for it in fallback_pool[: round(FACTCHECK_CLAIM_SHARE * len(fallback_pool))]}
    taken = {_query(strip_urls(it.text)) for it in items}  # claims must not reuse a query's cassettes
    for item in order:
        text = strip_urls(item.text)  # what the URL-stripping stage hands on
        query = _query(text)
        scenario = scenarios[item.id]
        rating = "Falso" if item.label == "fake" else "Verdadeiro"
        claim = None
        if scenario == "direct":
            position = rng.choice((1, 1, 1, 2, 3))
            results = [_generic_item(rng) for _ in range(position - 1)] + [_matching_item(rng, query)]
            results += [_generic_item(rng) for _ in range(rng.randint(0, 2))]
            out.web(query, results)
        elif scenario != "hard_fail":
            if scenario != "unrecorded_search":
                out.web(query, [_generic_item(rng)])
            words = text.split()
            while claim is None or claim in taken:
                size = rng.randint(24, 32) if scenario == "claim_long" else rng.randint(6, 16)
                first = rng.randint(0, max(0, len(words) - size))
                answer = " ".join(words[first : first + size])
                if scenario == "claim_long":
                    answer = f"Alegação: {answer}"
                claim = extract_claim(text, lambda prompt: answer).claim
            taken.add(claim)
            out.llm(template.render(llm_input(text)), answer)
            if scenario != "claim_search_empty":
                out.web(claim, [_generic_item(rng), _matching_item(rng, claim)])
        if item.id in reviewed_ids:
            # Validation queries the raw text; plant conflicts only where
            # that query is the one recorded here.
            if plan.validate_provider and len(plan.external_conflicts) * 5 < len(reviewed_ids) \
                    and _query(item.text) == query and rng.random() < 0.25:
                rating = "Verdadeiro" if item.label == "fake" else "Falso"
                plan.external_conflicts.append(item.id)
            out.factcheck(query, _review_body(rng, query, rating))
            plan.factcheck_original += 1
        elif item.id in fallback_ids:
            out.factcheck(claim, _review_body(rng, claim, rating))
            plan.factcheck_claim += 1
    plan.external_conflicts.sort()


def _make_distinct(rng: random.Random, items: list[NewsItem]) -> list[NewsItem]:
    """Prepend a word until every text and every search query is unique and
    every query has a term a result can match.

    Forwarded variants often open alike; distinct queries keep each record's
    scripted provider responses apart, since cassettes are keyed by request.
    """
    vocab = vocabulary()
    texts: set[str] = set()
    queries: set[str] = set()
    out = []
    for item in items:
        text = item.text
        while text in texts or _query(strip_urls(text)) in queries or not query_terms(_query(strip_urls(text))):
            word = vocab.content_word(rng)
            text = f"{word[:1].upper()}{word[1:]} {text}"
        texts.add(text)
        queries.add(_query(strip_urls(text)))
        out.append(replace(item, text=text))
    return out


def generate(workload: str, seed: int, out_dir: Path, n_records: int | None = None) -> Plan:
    """Write corpus.jsonl, incomplete_ids.txt, cassettes/ and plan.json."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    n_records = n_records or DEFAULT_SIZES[workload]
    rng = random.Random(f"{workload}:{seed}")
    plan = Plan(workload=workload, seed=seed, records=0, validate_provider=workload == "whatsapp-chains")
    build = {"fakebr-articles": _articles, "whatsapp-chains": _chains, "evidence-enrich": _short_messages}
    items = _make_distinct(rng, build[workload](rng, plan, n_records))
    plan.records = len(items)
    # Declare only pairs comfortably above the threshold after the last edit.
    texts = {item.id: item.text for item in items}
    planted = lambda pair: jaccard(texts[pair[0]], texts[pair[1]]) >= THRESHOLD + 0.05
    plan.near_dup_pairs = sorted(sorted(p) for p in plan.near_dup_pairs if planted(p))
    plan.label_conflicts = [p for p in plan.label_conflicts if planted(p)]
    plan.expected_removed = sorted(set(plan.expected_removed))

    out_dir.mkdir(parents=True, exist_ok=True)
    write_news(out_dir / "corpus.jsonl", items)
    (out_dir / "incomplete_ids.txt").write_text("".join(f"{i}\n" for i in plan.incomplete_ids), encoding="utf-8")
    _write_enrichment_cassettes(rng, plan, items, CassetteWriter(out_dir / "cassettes"))
    plan.save(out_dir / "plan.json")
    return plan


def inputs_digest(out_dir: Path) -> str:
    """SHA-256 over every generated file, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out_dir)).encode("utf-8"))
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def write_classification_cassettes(plan: Plan, inputs: Path, instances_path: Path, train_path: Path) -> dict[str, int]:
    """Classification answers for the instances a pass built.

    The prompts depend on which records survive validation and on the shots
    drawn from the training slice, so they are made from the outputs of a
    first pass, the way ``evaluate`` will assemble them. Answers are tagged
    (mostly correct), abstaining or left unrecorded, in fixed shares.
    """
    shots = select_shots(_read_instances(train_path), seed=0)
    shot_ids = {s.id for s in shots}
    targets = [inst for inst in _read_instances(instances_path) if inst.id not in shot_ids]
    order = _hash_order(targets, f"answer:{plan.seed}")
    kinds = dict(zip((inst.id for inst in order), _exact_counts(len(order), ANSWER_SHARES)))
    out = CassetteWriter(inputs / "cassettes")
    tags = {"fake": TAG_FAKE, "true": f"Resposta: {TAG_TRUE}."}
    for inst in targets:
        kind = kinds[inst.id]
        if kind == "unrecorded":
            continue
        if kind == "abstain":
            answer = ABSTAIN_TEXT
        else:
            label = inst.label if kind == "correct" else ("true" if inst.label == "fake" else "fake")
            answer = tags[label]
        out.llm(classification_prompt(inst, shots), answer)
    return {name: list(kinds.values()).count(name) for name, _ in ANSWER_SHARES}
