"""Provider plumbing: hashing, replay, caching, retry, response parsing."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evidencia.clocks import FrozenClock, SystemClock
from evidencia.providers import (
    LOG_NAME,
    CachingBackend,
    FactCheckRequest,
    FixtureBackend,
    KIND_FACTCHECK,
    KIND_LLM,
    KIND_WEB,
    LiveBackend,
    LlmRequest,
    ProviderFailure,
    WebSearchRequest,
    credentials_from_env,
    factcheck_search,
    llm_generate,
    prompt_hasher,
    request_hash,
    web_search,
    write_cassette,
)
from evidencia.records import ClaimReviewResult, SchemaError, WebResult

from conftest import CASSETTES, FIXTURES, ROOT

# Entries a reader must not trust: cut short, not an object, no body, no request hash.
BROKEN_ENTRIES = ('{"body": {"items": [', '[]', '{"kind": "web_search"}', '{"body": "texto"}',
                  '{"body": {"items": []}}', '{"body": {"items": [{"title": "\\ud800"}]}, "request_hash": "x"}')

X_PAYLOAD = {"query": "x"}
X_DIGEST = request_hash(KIND_WEB, X_PAYLOAD)


def log_line(kind, payload, body, captured_at=""):
    """One log line, as ``write_cassette`` and ``CachingBackend`` append it."""
    record = {"request_hash": request_hash(kind, payload), "kind": kind, "captured_at": captured_at,
              "request": payload, "body": body}
    return json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"


# BROKEN_ENTRIES as cache log lines for X_PAYLOAD. The cut one is how the
# last line of a run killed mid-write begins (keys are sorted, so "body"
# comes first) and ends the log without a newline; the objects with a body
# problem carry X_DIGEST, so only their body is wrong.
BROKEN_LINES = {
    BROKEN_ENTRIES[0]: BROKEN_ENTRIES[0],
    "[]": "[]\n",
    '{"kind": "web_search"}': json.dumps({"kind": KIND_WEB, "request_hash": X_DIGEST}) + "\n",
    '{"body": "texto"}': json.dumps({"body": "texto", "request_hash": X_DIGEST}) + "\n",
    '{"body": {"items": []}}': '{"body": {"items": []}}\n',
    # A lone surrogate escape, which no UTF-8 output can hold.
    BROKEN_ENTRIES[5]: json.dumps({"body": {"items": [{"title": "\ud800"}]}, "request_hash": X_DIGEST}) + "\n",
}


def cache_log(directory):
    return Path(directory) / LOG_NAME


def run_threads(worker, count):
    """Run ``worker(n)`` for n in range(count) on threads switching as often
    as the interpreter allows; the exceptions they raised."""
    errors = []

    def guarded(n):
        try:
            worker(n)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded, args=(n,)) for n in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


class TestRequestHash:
    def test_deterministic(self):
        payload = WebSearchRequest(query="vacina").payload()
        assert request_hash(KIND_WEB, payload) == request_hash(KIND_WEB, dict(payload))

    def test_key_order_irrelevant(self):
        a = {"query": "x", "num": 5, "gl": "pt-BR", "lr": "lang_pt"}
        b = {"lr": "lang_pt", "gl": "pt-BR", "num": 5, "query": "x"}
        assert request_hash(KIND_WEB, a) == request_hash(KIND_WEB, b)

    def test_kind_is_part_of_the_hash(self):
        payload = {"query": "x"}
        assert request_hash(KIND_WEB, payload) != request_hash(KIND_FACTCHECK, payload)

    def test_is_hex_sha256(self):
        digest = request_hash(KIND_WEB, {"query": "x"})
        assert len(digest) == 64
        int(digest, 16)


# Each request type's payload and one hash, as recorded before the request
# types lost their settable fields. Every recorded response is keyed by such
# a hash, so a change here orphans the shipped fixtures and every cache.
PINNED_REQUESTS = {
    KIND_WEB: (WebSearchRequest(query="vacina"),
               {"query": "vacina", "num": 5, "gl": "pt-BR", "lr": "lang_pt"},
               "a6fe0ebd74a118f56f6b6fb0189276b515f6af626645e9597191aebee62aab4b"),
    KIND_FACTCHECK: (FactCheckRequest(query="vacina"),
                     {"query": "vacina", "languageCode": "pt-BR", "pageSize": 5},
                     "70c2b290919ef208edbe356b51c7d564d0f366e84a5d7349a1daa70b5724384b"),
    KIND_LLM: (LlmRequest(prompt="vacina"),
               {"prompt": "vacina", "model": "gemini-1.5-flash", "safety_off": True},
               "32813d079116b05cfd3e69b04c617da16ef7612a1beadc26bd789b37a96f77fd"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_REQUESTS))
def test_request_payload_and_hash_are_pinned(kind):
    req, payload, digest = PINNED_REQUESTS[kind]
    assert req.payload() == payload
    assert request_hash(kind, req.payload()) == digest


@pytest.mark.parametrize("kind,helper", [(KIND_WEB, web_search), (KIND_FACTCHECK, factcheck_search),
                                         (KIND_LLM, llm_generate)], ids=lambda value: getattr(value, "__name__", value))
def test_helper_sends_the_pinned_payload(kind, helper):
    # Each helper takes the query or the prompt and fetches its request type's payload for it.
    sent = []

    class Recording:
        def fetch(self, kind, payload, digest=None):
            sent.append((kind, payload))
            return {"candidates": [{"content": {"parts": [{"text": "sim"}]}}]}

    helper("vacina", Recording())
    assert sent == [(kind, PINNED_REQUESTS[kind][1])]


def empty_log(directory):
    """A fixture directory that recorded nothing."""
    (Path(directory) / LOG_NAME).touch()
    return directory


class TestFixtureBackend:
    def test_replays_recorded_body(self, tmp_path):
        payload = WebSearchRequest(query="vacina").payload()
        write_cassette(tmp_path, KIND_WEB, payload, {"items": [{"title": "T", "link": "L"}]})
        backend = FixtureBackend(tmp_path)
        assert backend.fetch(KIND_WEB, payload)["items"][0]["title"] == "T"

    def test_unknown_search_is_empty(self, tmp_path):
        backend = FixtureBackend(empty_log(tmp_path))
        assert backend.fetch(KIND_WEB, {"query": "nada"}) == {"items": []}
        assert backend.fetch(KIND_FACTCHECK, {"query": "nada"}) == {"claims": []}

    def test_unknown_generation_fails(self, tmp_path):
        backend = FixtureBackend(empty_log(tmp_path))
        with pytest.raises(ProviderFailure):
            backend.fetch(KIND_LLM, LlmRequest(prompt="oi").payload())

    def test_per_file_layout_is_not_read(self, tmp_path):
        log = write_cassette(tmp_path, KIND_WEB, X_PAYLOAD, {"items": []})
        log.rename(tmp_path / f"{X_DIGEST}.json")
        with pytest.raises(FileNotFoundError, match=str(log)):
            FixtureBackend(tmp_path)

    @pytest.mark.parametrize("text", BROKEN_ENTRIES)
    def test_unreadable_recording_names_the_file(self, tmp_path, text):
        # Whatever kind of request the broken line recorded, the whole log is
        # refused when the backend is built, not when that request comes up.
        write_cassette(tmp_path, KIND_WEB, WebSearchRequest(query="vacina").payload(), {"items": []})
        with (tmp_path / LOG_NAME).open("a", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(SchemaError, match=f"{LOG_NAME}:2: "):
            FixtureBackend(tmp_path)

    def test_cassette_file_format(self, tmp_path):
        payload = FactCheckRequest(query="checar isto").payload()
        body = {"claims": [{"text": "a\u2028b"}]}
        log = write_cassette(tmp_path, KIND_FACTCHECK, payload, body, "2024-07-09T00:00:00Z")
        assert log == tmp_path / LOG_NAME
        assert list(tmp_path.iterdir()) == [log]
        text = log.read_text(encoding="utf-8")
        assert text == log_line(KIND_FACTCHECK, payload, body, "2024-07-09T00:00:00Z")
        stored = json.loads(text)
        assert stored["kind"] == KIND_FACTCHECK
        assert stored["request"] == payload
        assert stored["captured_at"] == "2024-07-09T00:00:00Z"
        assert stored["request_hash"] == request_hash(KIND_FACTCHECK, payload)
        payload2 = FactCheckRequest(query="outra").payload()
        write_cassette(tmp_path, KIND_FACTCHECK, payload2, {"claims": []})
        assert log.read_text(encoding="utf-8") == text + log_line(KIND_FACTCHECK, payload2, {"claims": []})

    def test_fixture_log_feeds_the_cache_and_back(self, tmp_path):
        write_cassette(tmp_path / "fixtures", KIND_WEB, X_PAYLOAD, {"items": [{"title": "recorded"}]})
        cache = CachingBackend(FixtureBackend(tmp_path / "fixtures"), tmp_path / "cache", clock=FrozenClock())
        cache.fetch(KIND_WEB, X_PAYLOAD)
        # A cache log is a fixture log: it replays strictly as one.
        replay = FixtureBackend(tmp_path / "cache")
        assert replay.fetch(KIND_WEB, X_PAYLOAD) == {"items": [{"title": "recorded"}]}


class TestShippedFixtures:
    def test_every_line_is_whole_unique_and_hashes_its_request(self):
        data = (CASSETTES / LOG_NAME).read_bytes()
        assert data.endswith(b"\n")
        lines = data.split(b"\n")[:-1]
        stored = [json.loads(line) for line in lines]
        digests = [entry["request_hash"] for entry in stored]
        assert len(set(digests)) == len(digests) == len(lines)
        for entry in stored:
            assert entry["request_hash"] == request_hash(entry["kind"], entry["request"])
            assert isinstance(entry["body"], dict)
        assert sorted(path.name for path in CASSETTES.iterdir()) == [LOG_NAME]

    def test_fixture_tool_rebuilds_them_byte_for_byte_under_any_hash_seed(self, tmp_path):
        # The two seeds order a set of two strings differently, so a loop
        # over a set in the tool would give one of them a different log.
        def digests(root):
            return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in root.rglob("*") if p.is_file()}

        shipped = digests(FIXTURES)
        for seed in ("0", "2"):
            copy = tmp_path / f"seed{seed}"
            for name in ("src", "tools", "fixtures"):
                shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, PYTHONHASHSEED=seed)
            subprocess.run([sys.executable, "tools/build_demo_fixtures.py"], cwd=copy, env=env,
                           capture_output=True, check=True)
            assert digests(copy / "fixtures") == shipped, f"PYTHONHASHSEED={seed}"


class CountingBackend:
    def __init__(self, body=None, exc=None):
        self.body = body if body is not None else {"items": [{"title": "live"}]}
        self.exc = exc
        self.calls = 0

    def fetch(self, kind, payload, digest=None):
        self.calls += 1
        if self.exc:
            raise self.exc
        return self.body


class TestCachingBackend:
    def test_read_write_caches_after_miss(self, tmp_path):
        inner = CountingBackend()
        cache = CachingBackend(inner, tmp_path, clock=FrozenClock())
        payload = {"query": "x"}
        first = cache.fetch(KIND_WEB, payload)
        second = cache.fetch(KIND_WEB, payload)
        assert first == second == inner.body
        assert inner.calls == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_directory_is_made_when_built(self, tmp_path):
        CachingBackend(CountingBackend(), tmp_path / "cache")
        assert (tmp_path / "cache").is_dir()
        blocker = tmp_path / "file"
        blocker.touch()
        with pytest.raises(OSError):
            CachingBackend(CountingBackend(), blocker / "cache")

    @pytest.mark.parametrize("entry", BROKEN_ENTRIES)
    def test_unreadable_entry_is_a_miss_and_is_rewritten(self, tmp_path, entry):
        text = BROKEN_LINES[entry]
        log = cache_log(tmp_path)
        log.write_text(text, encoding="utf-8")
        inner = CountingBackend()
        cache = CachingBackend(inner, tmp_path, clock=FrozenClock())
        assert cache.fetch(KIND_WEB, X_PAYLOAD) == inner.body
        assert (cache.hits, cache.misses, inner.calls) == (0, 1, 1)
        # The bad line stays; one whole line follows it, on a line of its own.
        whole = log_line(KIND_WEB, X_PAYLOAD, inner.body, FrozenClock().utc_instant())
        separator = "" if text.endswith("\n") else "\n"
        assert log.read_text(encoding="utf-8") == text + separator + whole
        assert cache.fetch(KIND_WEB, X_PAYLOAD) == inner.body
        assert (cache.hits, cache.misses, inner.calls) == (1, 1, 1)
        again = CountingBackend()
        reopened = CachingBackend(again, tmp_path, clock=FrozenClock())
        assert reopened.fetch(KIND_WEB, X_PAYLOAD) == inner.body
        assert (reopened.hits, reopened.misses, again.calls) == (1, 0, 0)

    def test_cut_entry_is_how_a_real_line_begins(self):
        assert log_line(KIND_WEB, X_PAYLOAD, {"items": [{"title": "t"}]}).startswith(BROKEN_ENTRIES[0])

    def test_log_is_the_only_file_and_one_line_per_miss(self, tmp_path):
        inner = CountingBackend()
        cache = CachingBackend(inner, tmp_path, clock=FrozenClock())
        payloads = [{"query": f"q{n}"} for n in range(3)]
        for payload in payloads + payloads:
            cache.fetch(KIND_WEB, payload)
        assert list(tmp_path.iterdir()) == [cache_log(tmp_path)]
        expected = "".join(log_line(KIND_WEB, p, inner.body, FrozenClock().utc_instant()) for p in payloads)
        assert cache_log(tmp_path).read_text(encoding="utf-8") == expected

    def test_line_separator_characters_stay_inside_a_line(self, tmp_path):
        payload = {"query": "a\u2028b\x85c\x1cd"}
        body = {"items": [{"title": "e\u2029f"}]}
        CachingBackend(CountingBackend(body), tmp_path).fetch(KIND_WEB, payload)
        again = CountingBackend()
        assert CachingBackend(again, tmp_path).fetch(KIND_WEB, payload) == body
        assert again.calls == 0

    def test_each_fetch_hashes_its_request_once(self, tmp_path, monkeypatch):
        from evidencia import providers

        hashed = []
        real = providers.request_hash
        monkeypatch.setattr(providers, "request_hash", lambda kind, payload: hashed.append(kind) or real(kind, payload))
        write_cassette(tmp_path / "fixtures", KIND_WEB, X_PAYLOAD, {"items": [{"title": "recorded"}]})
        hashed.clear()
        cache = CachingBackend(FixtureBackend(tmp_path / "fixtures"), tmp_path / "cache", clock=FrozenClock())
        assert cache.fetch(KIND_WEB, X_PAYLOAD)["items"][0]["title"] == "recorded"
        assert cache.fetch(KIND_WEB, X_PAYLOAD)["items"][0]["title"] == "recorded"
        assert hashed == [KIND_WEB, KIND_WEB]

    def test_counters_and_log_under_threads(self, tmp_path):
        cache = CachingBackend(CountingBackend(), tmp_path, clock=FrozenClock())
        payloads = [{"query": f"q{n % 25}"} for n in range(400)]

        def worker(n):
            for payload in payloads[n::8]:
                cache.fetch(KIND_WEB, payload)

        assert run_threads(worker, 8) == []
        assert cache.hits + cache.misses == len(payloads)
        lines = cache_log(tmp_path).read_bytes().split(b"\n")
        assert lines.pop() == b""
        assert len(lines) == cache.misses
        logged = {json.loads(line)["request_hash"] for line in lines}
        assert logged == {request_hash(KIND_WEB, p) for p in payloads}


class TestCassetteWriters:
    def test_concurrent_writers_leave_whole_lines(self, tmp_path):
        body = {"items": [{"title": "t" * 20000}]}
        payloads = [{"query": f"q{n}"} for n in range(800)]

        def worker(n):
            for payload in payloads[n::8]:
                write_cassette(tmp_path, KIND_WEB, payload, body)

        assert run_threads(worker, 8) == []
        log = tmp_path / LOG_NAME
        assert list(tmp_path.iterdir()) == [log]
        lines = log.read_bytes().split(b"\n")
        assert lines.pop() == b""
        assert len(lines) == len(payloads)
        assert sorted(lines) == sorted(log_line(KIND_WEB, p, body).rstrip("\n").encode("utf-8") for p in payloads)
        backend = FixtureBackend(tmp_path)
        assert all(backend.fetch(KIND_WEB, payload) == body for payload in payloads)


def make_transport(script):
    """Yields scripted (status, text) responses on successive calls."""
    calls = []

    def transport(method, url, params, body):
        calls.append((method, url))
        status, text = script[min(len(calls) - 1, len(script) - 1)]
        return status, text

    transport.calls = calls
    return transport


CREDS = {
    "EVD_SEARCH_KEY": "k",
    "EVD_SEARCH_CX": "cx",
    "EVD_FACTCHECK_KEY": "fk",
    "EVD_LLM_KEY": "lk",
}


class SleepLog(FrozenClock):
    """A frozen clock that records each backoff sleep it is asked for."""

    def __init__(self):
        self.sleeps = []

    def sleep(self, seconds):
        self.sleeps.append(seconds)


class TestLiveBackend:
    def test_retries_on_429_then_succeeds(self):
        transport = make_transport([(429, ""), (200, '{"items": []}')])
        backend = LiveBackend(CREDS, clock=FrozenClock(), transport=transport)
        assert backend.fetch(KIND_WEB, WebSearchRequest(query="x").payload()) == {"items": []}
        assert len(transport.calls) == 2

    def test_retries_on_500(self):
        transport = make_transport([(503, ""), (500, ""), (200, '{"claims": []}')])
        backend = LiveBackend(CREDS, clock=FrozenClock(), transport=transport)
        assert backend.fetch(KIND_FACTCHECK, FactCheckRequest(query="x").payload()) == {"claims": []}
        assert len(transport.calls) == 3

    def test_gives_up_after_budget(self):
        transport = make_transport([(429, "")])
        clock = SleepLog()
        backend = LiveBackend(CREDS, clock=clock, transport=transport)
        with pytest.raises(ProviderFailure, match="giving up after 4 attempts"):
            backend.fetch(KIND_WEB, WebSearchRequest(query="x").payload())
        assert len(transport.calls) == 4
        assert clock.sleeps == [0.5, 1.0, 2.0]  # one backoff between each two attempts

    def test_attempts_count_every_call_under_threads(self):
        transport = make_transport([(200, '{"items": []}')])
        backend = LiveBackend(CREDS, clock=FrozenClock(), transport=transport)

        def worker(n):
            for _ in range(50):
                backend.fetch(KIND_WEB, WebSearchRequest(query=f"q{n}").payload())

        assert run_threads(worker, 8) == []
        assert backend.attempts == len(transport.calls) == 400

    def test_programming_error_propagates_after_one_attempt(self):
        calls = []

        def transport(method, url, params, body):
            calls.append(url)
            raise TypeError("unexpected keyword")

        backend = LiveBackend(CREDS, clock=FrozenClock(), transport=transport)
        with pytest.raises(TypeError, match="unexpected keyword"):
            backend.fetch(KIND_WEB, WebSearchRequest(query="x").payload())
        assert len(calls) == 1 and backend.attempts == 1

    def test_connection_error_is_retried_then_fails(self):
        calls = []

        def transport(method, url, params, body):
            calls.append(url)
            raise ConnectionError("connection reset")

        clock = SleepLog()
        backend = LiveBackend(CREDS, clock=clock, transport=transport)
        with pytest.raises(ProviderFailure, match=r"giving up after 4 attempts \(transport error: connection reset\)"):
            backend.fetch(KIND_WEB, WebSearchRequest(query="x").payload())
        assert len(calls) == 4 and backend.attempts == 4
        assert clock.sleeps == [0.5, 1.0, 2.0]

    def test_client_error_fails_immediately(self):
        transport = make_transport([(403, "denied")])
        backend = LiveBackend(CREDS, clock=FrozenClock(), transport=transport)
        with pytest.raises(ProviderFailure, match="HTTP 403"):
            backend.fetch(KIND_WEB, WebSearchRequest(query="x").payload())
        assert len(transport.calls) == 1

    def test_missing_credential(self):
        backend = LiveBackend({}, clock=FrozenClock(), transport=make_transport([(200, "{}")]))
        with pytest.raises(ProviderFailure, match="missing credential"):
            backend.fetch(KIND_WEB, WebSearchRequest(query="x").payload())

    def test_llm_request_posts_prompt(self):
        transport = make_transport([(200, '{"candidates": []}')])
        backend = LiveBackend(CREDS, clock=FrozenClock(), transport=transport)
        backend.fetch(KIND_LLM, LlmRequest(prompt="olá").payload())
        method, url = transport.calls[0]
        assert method == "POST"
        assert "gemini-1.5-flash" in url

    def test_llm_post_turns_every_safety_filter_off(self):
        bodies = []

        def transport(method, url, params, body):
            bodies.append(body)
            return 200, '{"text": "ok"}'

        backend = LiveBackend(CREDS, clock=FrozenClock(), transport=transport)
        backend.fetch(KIND_LLM, LlmRequest(prompt="olá").payload())
        categories = ("HARM_CATEGORY_HARASSMENT", "HARM_CATEGORY_HATE_SPEECH",
                      "HARM_CATEGORY_SEXUALLY_EXPLICIT", "HARM_CATEGORY_DANGEROUS_CONTENT")
        assert bodies == [{
            "contents": [{"parts": [{"text": "olá"}]}],
            "safetySettings": [{"category": cat, "threshold": "BLOCK_NONE"} for cat in categories],
        }]

    def test_searches_get_the_fixed_settings(self):
        sent = []

        def transport(method, url, params, body):
            sent.append((method, params, body))
            return 200, "{}"

        backend = LiveBackend(CREDS, clock=FrozenClock(), transport=transport)
        backend.fetch(KIND_WEB, WebSearchRequest(query="vacina").payload())
        backend.fetch(KIND_FACTCHECK, FactCheckRequest(query="vacina").payload())
        assert sent == [
            ("GET", {"key": "k", "cx": "cx", "q": "vacina", "num": 5, "gl": "pt-BR", "lr": "lang_pt"}, None),
            ("GET", {"key": "fk", "query": "vacina", "languageCode": "pt-BR", "pageSize": 5}, None),
        ]

    def test_credentials_from_env(self, monkeypatch):
        monkeypatch.setenv("EVD_SEARCH_KEY", "abc")
        monkeypatch.delenv("EVD_LLM_KEY", raising=False)
        creds = credentials_from_env()
        assert creds["EVD_SEARCH_KEY"] == "abc"
        assert creds["EVD_LLM_KEY"] == ""


class TestClocks:
    def test_frozen_instant(self):
        assert FrozenClock().utc_instant() == "2020-01-01T00:00:00Z"

    def test_system_instant_shape(self):
        instant = SystemClock().utc_instant()
        assert instant.endswith("Z") and "T" in instant

    def test_frozen_sleep_returns_at_once(self):
        clock = FrozenClock()
        started = time.monotonic()
        clock.sleep(100.0)
        assert time.monotonic() - started < 1.0
        assert clock.utc_instant() == "2020-01-01T00:00:00Z"


# Text with the characters JSON escapes or that UTF-8 takes several bytes
# for: quote, backslash, controls, the line separators and non-BMP text.
PROMPT_TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\u2028\u2029é\U0001f600'),
                                st.characters(exclude_categories=("Cs",))))


class TestPromptHasher:
    @given(PROMPT_TEXT, PROMPT_TEXT, PROMPT_TEXT)
    def test_digest_is_the_request_hash(self, head, rest, other):
        digest = prompt_hasher(head)
        for tail in (rest, other, ""):
            assert digest(tail) == request_hash(KIND_LLM, LlmRequest(prompt=head + tail).payload())


SEARCHES = {
    "web": lambda backend: web_search("q", backend),
    "factcheck": lambda backend: factcheck_search("q", backend),
    "llm": lambda backend: llm_generate("q", backend),
}


class TestParsers:
    def test_web_search_prefers_html_fields_and_caps(self, tmp_path):
        payload = WebSearchRequest(query="vacina").payload()
        items = [
            {"title": "plain", "htmlTitle": "<b>rico</b>", "link": "l1",
             "snippet": "s", "htmlSnippet": "<b>s</b>"},
            {"title": "só plain", "link": "l2", "snippet": "s2"},
        ] + [{"title": f"item {n}", "link": f"l{n}", "snippet": f"s{n}"} for n in range(3, 8)]
        write_cassette(tmp_path, KIND_WEB, payload, {"items": items})
        results = web_search("vacina", FixtureBackend(tmp_path))
        assert [r.link for r in results] == ["l1", "l2", "l3", "l4", "l5"]  # seven items, capped at five
        assert [r.rank for r in results] == [1, 2, 3, 4, 5]
        assert results[0].title == "<b>rico</b>"
        assert results[0].snippet == "<b>s</b>"
        assert results[1].title == "só plain"

    def test_factcheck_takes_first_review_and_skips_reviewless(self, tmp_path):
        payload = FactCheckRequest(query="checagem").payload()
        body = {"claims": [
            {"text": "sem revisão"},
            {"text": "com revisão",
             "claimReview": [
                 {"publisher": {"name": "Checagem", "site": "c.example"},
                  "textualRating": "Falso", "url": "https://c.example/1"},
                 {"publisher": {"name": "Outra"}, "textualRating": "Impreciso", "url": "u2"},
             ]},
        ]}
        write_cassette(tmp_path, KIND_FACTCHECK, payload, body)
        results = factcheck_search("checagem", FixtureBackend(tmp_path))
        assert len(results) == 1
        assert results[0].publisher_name == "Checagem"
        assert results[0].textual_rating == "Falso"
        assert results[0].rank == 1

    def test_factcheck_caps_at_five_claims(self, tmp_path):
        claims = [{"text": f"alegação {n}", "claimReview": [{"textualRating": "Falso"}]} for n in range(7)]
        write_cassette(tmp_path, KIND_FACTCHECK, FactCheckRequest(query="muitas").payload(), {"claims": claims})
        results = factcheck_search("muitas", FixtureBackend(tmp_path))
        assert [r.claim_text for r in results] == [f"alegação {n}" for n in range(5)]

    def test_llm_joins_candidate_parts(self, tmp_path):
        body = {"candidates": [{"content": {"parts": [{"text": "uma "}, {"text": "resposta"}]}}]}
        write_cassette(tmp_path, KIND_LLM, LlmRequest(prompt="pergunta").payload(), body)
        assert llm_generate("pergunta", FixtureBackend(tmp_path)) == "uma resposta"

    def test_llm_text_body_fails(self, tmp_path):
        # A bare {"text": ...} body is not a generation response.
        write_cassette(tmp_path, KIND_LLM, LlmRequest(prompt="pergunta 2").payload(), {"text": "direto"})
        with pytest.raises(ProviderFailure, match="no candidates"):
            llm_generate("pergunta 2", FixtureBackend(tmp_path))

    def test_llm_no_candidates_fails(self, tmp_path):
        write_cassette(tmp_path, KIND_LLM, LlmRequest(prompt="pergunta 3").payload(), {"candidates": []})
        with pytest.raises(ProviderFailure):
            llm_generate("pergunta 3", FixtureBackend(tmp_path))

    # A body of the wrong shape is a failed call, not a crash of the caller.
    @pytest.mark.parametrize("search,body", [
        ("web", {"items": "x"}), ("web", []), ("web", {"items": ["x"]}), ("web", {"items": [{"link": 5}]}),
        ("web", {"items": [{"htmlTitle": {"b": 1}}]}),
        ("factcheck", {"claims": "x"}), ("factcheck", []), ("factcheck", {"claims": ["x"]}),
        ("factcheck", {"claims": [{"claimReview": "x"}]}), ("factcheck", {"claims": [{"claimReview": ["x"]}]}),
        ("factcheck", {"claims": [{"claimReview": [{"publisher": "x"}]}]}),
        ("factcheck", {"claims": [{"claimReview": [{"reviewDate": 2020}]}]}),
        ("llm", {"candidates": ["x"]}), ("llm", []), ("llm", {"candidates": "x"}),
        ("llm", {"candidates": [{"content": "x"}]}), ("llm", {"candidates": [{"content": {"parts": "x"}}]}),
        ("llm", {"candidates": [{"content": {"parts": ["x"]}}]}),
        ("llm", {"candidates": [{"content": {"parts": [{"text": 5}]}}]}),
    ], ids=lambda value: json.dumps(value) if not isinstance(value, str) else value)
    def test_wrong_shape_is_a_provider_failure(self, search, body):
        with pytest.raises(ProviderFailure, match="expected"):
            SEARCHES[search](CountingBackend(body))

    def test_null_fields_read_as_empty_and_round_trip(self):
        web = web_search("q", CountingBackend({"items": [
            {"title": None, "link": None, "snippet": None, "htmlTitle": None}]}))
        assert [(r.title, r.link, r.snippet) for r in web] == [("", "", "")]
        reviews = factcheck_search("q", CountingBackend({"claims": [
            {"text": None, "claimant": None, "claimReview": [{"publisher": None, "textualRating": None,
                                                              "url": None, "reviewDate": None}]}]}))
        assert (reviews[0].claim_text, reviews[0].textual_rating, reviews[0].review_date) == ("", "", None)
        assert [WebResult.from_dict(r.to_dict()) for r in web] == web
        assert [ClaimReviewResult.from_dict(r.to_dict()) for r in reviews] == reviews
        body = {"candidates": [{"content": {"parts": [{"text": None}, {"text": "sim"}]}}]}
        assert llm_generate("q", CountingBackend(body)) == "sim"
