"""Provider plumbing: hashing, replay, caching, retry, response parsing."""

import json
import sys
import threading
from pathlib import Path

import pytest

from evidencia.providers import (
    CachingBackend,
    FactCheckRequest,
    FixtureBackend,
    FrozenClock,
    KIND_FACTCHECK,
    KIND_LLM,
    KIND_WEB,
    LiveBackend,
    LlmRequest,
    ProviderFailure,
    SystemClock,
    WebSearchRequest,
    credentials_from_env,
    factcheck_search,
    llm_generate,
    request_hash,
    web_search,
    write_cassette,
)
from evidencia.records import SchemaError

# Entries a reader must not trust: cut short, not an object, no body.
BROKEN_ENTRIES = ('{"body": {"items": [', '[]', '{"kind": "web_search"}', '{"body": "texto"}')


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


class TestFixtureBackend:
    def test_replays_recorded_body(self, tmp_path):
        backend = FixtureBackend(tmp_path)
        payload = WebSearchRequest(query="vacina").payload()
        write_cassette(tmp_path, KIND_WEB, payload, {"items": [{"title": "T", "link": "L"}]})
        assert backend.fetch(KIND_WEB, payload)["items"][0]["title"] == "T"

    def test_unknown_search_is_empty(self, tmp_path):
        backend = FixtureBackend(tmp_path)
        assert backend.fetch(KIND_WEB, {"query": "nada"}) == {"items": []}
        assert backend.fetch(KIND_FACTCHECK, {"query": "nada"}) == {"claims": []}

    def test_unknown_generation_fails(self, tmp_path):
        backend = FixtureBackend(tmp_path)
        with pytest.raises(ProviderFailure):
            backend.fetch(KIND_LLM, LlmRequest(prompt="oi").payload())

    @pytest.mark.parametrize("text", BROKEN_ENTRIES)
    def test_unreadable_recording_names_the_file(self, tmp_path, text):
        payload = WebSearchRequest(query="vacina").payload()
        path = write_cassette(tmp_path, KIND_WEB, payload, {"items": []})
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=path.name):
            FixtureBackend(tmp_path).fetch(KIND_WEB, payload)

    def test_cassette_file_format(self, tmp_path):
        payload = FactCheckRequest(query="checar isto").payload()
        path = write_cassette(tmp_path, KIND_FACTCHECK, payload, {"claims": []}, "2024-07-09T00:00:00Z")
        stored = json.loads(path.read_text())
        assert stored["kind"] == KIND_FACTCHECK
        assert stored["request"] == payload
        assert stored["captured_at"] == "2024-07-09T00:00:00Z"
        assert stored["request_hash"] == path.stem == request_hash(KIND_FACTCHECK, payload)


class CountingBackend:
    def __init__(self, body=None, exc=None):
        self.body = body if body is not None else {"items": [{"title": "live"}]}
        self.exc = exc
        self.calls = 0

    def fetch(self, kind, payload):
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

    def test_read_only_never_writes(self, tmp_path):
        inner = CountingBackend()
        cache = CachingBackend(inner, tmp_path, mode="read_only")
        cache.fetch(KIND_WEB, {"query": "x"})
        cache.fetch(KIND_WEB, {"query": "x"})
        assert inner.calls == 2
        assert list(tmp_path.iterdir()) == []

    def test_read_only_serves_existing_entries(self, tmp_path):
        payload = {"query": "x"}
        write_cassette(tmp_path, KIND_WEB, payload, {"items": [{"title": "cached"}]})
        inner = CountingBackend()
        cache = CachingBackend(inner, tmp_path, mode="read_only")
        assert cache.fetch(KIND_WEB, payload)["items"][0]["title"] == "cached"
        assert inner.calls == 0

    def test_bypass_ignores_cache_entirely(self, tmp_path):
        payload = {"query": "x"}
        write_cassette(tmp_path, KIND_WEB, payload, {"items": [{"title": "cached"}]})
        inner = CountingBackend()
        cache = CachingBackend(inner, tmp_path, mode="bypass")
        assert cache.fetch(KIND_WEB, payload)["items"][0]["title"] == "live"
        assert inner.calls == 1

    @pytest.mark.parametrize("text", BROKEN_ENTRIES)
    def test_unreadable_entry_is_a_miss_and_is_rewritten(self, tmp_path, text):
        payload = {"query": "x"}
        path = write_cassette(tmp_path, KIND_WEB, payload, {"items": []})
        path.write_text(text, encoding="utf-8")
        inner = CountingBackend()
        cache = CachingBackend(inner, tmp_path, clock=FrozenClock())
        assert cache.fetch(KIND_WEB, payload) == inner.body
        assert (cache.hits, cache.misses, inner.calls) == (0, 1, 1)
        assert json.loads(path.read_text(encoding="utf-8"))["body"] == inner.body
        assert cache.fetch(KIND_WEB, payload) == inner.body
        assert (cache.hits, cache.misses, inner.calls) == (1, 1, 1)

    def test_read_only_leaves_an_unreadable_entry_alone(self, tmp_path):
        payload = {"query": "x"}
        path = write_cassette(tmp_path, KIND_WEB, payload, {"items": []})
        path.write_text(BROKEN_ENTRIES[0], encoding="utf-8")
        inner = CountingBackend()
        cache = CachingBackend(inner, tmp_path, mode="read_only")
        assert cache.fetch(KIND_WEB, payload) == inner.body
        assert (cache.misses, inner.calls) == (1, 1)
        assert path.read_text(encoding="utf-8") == BROKEN_ENTRIES[0]

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CachingBackend(CountingBackend(), tmp_path, mode="write_only")


class TestAtomicCassetteWrite:
    def test_interrupted_write_leaves_no_entry(self, tmp_path, monkeypatch):
        payload = {"query": "x"}
        real_write_text = Path.write_text

        def cut_short(self, data, *args, **kwargs):
            real_write_text(self, data[:100], *args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_text", cut_short)
        with pytest.raises(KeyboardInterrupt):
            write_cassette(tmp_path, KIND_WEB, payload, {"items": [{"title": "t" * 500}]})
        monkeypatch.undo()

        assert not (tmp_path / f"{request_hash(KIND_WEB, payload)}.json").exists()
        assert list(tmp_path.iterdir()) == []
        inner = CountingBackend()
        cache = CachingBackend(inner, tmp_path, clock=FrozenClock())
        assert cache.fetch(KIND_WEB, payload) == inner.body
        assert inner.calls == 1

    def test_concurrent_writers_and_readers_see_whole_files(self, tmp_path):
        payload = {"query": "x"}
        body = {"items": [{"title": "t" * 20000}]}
        path = tmp_path / f"{request_hash(KIND_WEB, payload)}.json"
        errors = []

        def worker(n):
            try:
                for _ in range(40):
                    if n % 2:
                        write_cassette(tmp_path, KIND_WEB, payload, body)
                    elif path.exists():
                        assert json.loads(path.read_text(encoding="utf-8"))["body"] == body
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert list(tmp_path.iterdir()) == [path]


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
        clock = FrozenClock()
        backend = LiveBackend(CREDS, clock=clock, transport=transport)
        with pytest.raises(ProviderFailure, match="giving up after 4 attempts"):
            backend.fetch(KIND_WEB, WebSearchRequest(query="x").payload())
        assert len(transport.calls) == 4
        # backoff 0.5, 1.0, 2.0 between the four attempts
        assert clock.now() == pytest.approx(3.5)

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

    def test_credentials_from_env(self, monkeypatch):
        monkeypatch.setenv("EVD_SEARCH_KEY", "abc")
        monkeypatch.delenv("EVD_LLM_KEY", raising=False)
        creds = credentials_from_env()
        assert creds["EVD_SEARCH_KEY"] == "abc"
        assert creds["EVD_LLM_KEY"] == ""


class TestClocks:
    def test_frozen_instant(self):
        clock = FrozenClock()
        assert clock.utc_instant() == "2020-01-01T00:00:00Z"
        clock.sleep(100.0)
        assert clock.utc_instant() == "2020-01-01T00:00:00Z"

    def test_system_instant_shape(self):
        instant = SystemClock().utc_instant()
        assert instant.endswith("Z") and "T" in instant

    def test_frozen_clock_advances_on_sleep(self):
        clock = FrozenClock()
        assert clock.now() == 0.0
        clock.sleep(1.5)
        clock.sleep(0.25)
        assert clock.now() == pytest.approx(1.75)


class TestParsers:
    def test_web_search_prefers_html_fields_and_caps(self, tmp_path):
        backend = FixtureBackend(tmp_path)
        payload = WebSearchRequest(query="vacina", num=2).payload()
        items = [
            {"title": "plain", "htmlTitle": "<b>rico</b>", "link": "l1",
             "snippet": "s", "htmlSnippet": "<b>s</b>"},
            {"title": "só plain", "link": "l2", "snippet": "s2"},
            {"title": "descartado", "link": "l3", "snippet": "s3"},
        ]
        write_cassette(tmp_path, KIND_WEB, payload, {"items": items})
        results = web_search(WebSearchRequest(query="vacina", num=2), backend)
        assert [r.rank for r in results] == [1, 2]
        assert results[0].title == "<b>rico</b>"
        assert results[0].snippet == "<b>s</b>"
        assert results[1].title == "só plain"

    def test_factcheck_takes_first_review_and_skips_reviewless(self, tmp_path):
        backend = FixtureBackend(tmp_path)
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
        results = factcheck_search(FactCheckRequest(query="checagem"), backend)
        assert len(results) == 1
        assert results[0].publisher_name == "Checagem"
        assert results[0].textual_rating == "Falso"
        assert results[0].rank == 1

    def test_llm_joins_candidate_parts(self, tmp_path):
        backend = FixtureBackend(tmp_path)
        request = LlmRequest(prompt="pergunta")
        body = {"candidates": [{"content": {"parts": [{"text": "uma "}, {"text": "resposta"}]}}]}
        write_cassette(tmp_path, KIND_LLM, request.payload(), body)
        assert llm_generate(request, backend) == "uma resposta"

    def test_llm_text_shortcut(self, tmp_path):
        backend = FixtureBackend(tmp_path)
        request = LlmRequest(prompt="pergunta 2")
        write_cassette(tmp_path, KIND_LLM, request.payload(), {"text": "direto"})
        assert llm_generate(request, backend) == "direto"

    def test_llm_no_candidates_fails(self, tmp_path):
        backend = FixtureBackend(tmp_path)
        request = LlmRequest(prompt="pergunta 3")
        write_cassette(tmp_path, KIND_LLM, request.payload(), {"candidates": []})
        with pytest.raises(ProviderFailure):
            llm_generate(request, backend)
