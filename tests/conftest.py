"""Shared fixtures: paths into the shipped demo corpus and offline backends."""

from __future__ import annotations

from pathlib import Path

import pytest

from evidencia.clocks import FrozenClock
from evidencia.langid import TrigramDetector
from evidencia.providers import FixtureBackend
from evidencia.records import read_news

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
CASSETTES = FIXTURES / "cassettes"


@pytest.fixture(scope="session")
def corpus():
    return read_news(FIXTURES / "corpus.jsonl")


@pytest.fixture(scope="session")
def corpus_by_id(corpus):
    return {item.id: item for item in corpus}


@pytest.fixture(scope="session")
def backend():
    return FixtureBackend(CASSETTES)


@pytest.fixture()
def clock():
    return FrozenClock()


@pytest.fixture(scope="session")
def detector():
    return TrigramDetector()
