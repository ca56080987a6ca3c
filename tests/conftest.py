"""Shared fixtures and corpus builders for the test suite."""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

import rankforge
from rankforge.corpus import Document

TOPIC_VOCAB = {
    "sports": ("game team player season score win league match coach goal "
               "championship fans stadium tournament defense offense referee "
               "playoff roster trade").split(),
    "cooking": ("recipe flavor oven bake simmer garlic butter sauce dough salt "
                "pepper roast tender crispy whisk skillet marinade broth glaze "
                "season").split(),
    "space": ("orbit rocket launch satellite crew module lunar mars telescope "
              "gravity mission payload booster capsule thrust docking reentry "
              "probe lander flyby").split(),
    "finance": ("market stock bond yield dividend portfolio hedge equity margin "
                "asset liability revenue earnings inflation currency broker "
                "index futures option ledger").split(),
}


def child_pythonpath() -> str:
    """PYTHONPATH for a child process, so it imports the same rankforge as this suite.

    The directory the imported package came from goes first, ahead of any
    inherited entries, so neither a missing install nor a stale one is picked up.
    """
    root = str(Path(rankforge.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return os.pathsep.join([root, inherited]) if inherited else root


def make_document(rng: random.Random, topic: str, i: int, n_words: int = 60) -> Document:
    words = [rng.choice(TOPIC_VOCAB[topic]) for _ in range(n_words)]
    return Document(id=f"{topic[:2]}{i:05d}", title=f"{topic} note {i}", text=" ".join(words))


def make_collection(n_docs: int, seed: int = 0, topics: tuple[str, ...] = ("sports", "cooking", "space"),
                    n_words: int = 60) -> dict[str, Document]:
    rng = random.Random(seed)
    docs = [make_document(rng, topics[i % len(topics)], i, n_words) for i in range(n_docs)]
    return {doc.id: doc for doc in docs}


def write_corpus_jsonl(collection: dict[str, Document], path: Path) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in collection.values():
            fh.write(json.dumps({"_id": doc.id, "title": doc.title, "text": doc.text}) + "\n")
    return path


def blob_matrix(rng: np.random.Generator, centers: np.ndarray, per_blob: int,
                noise: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Points scattered around each center; returns (matrix, true labels)."""
    rows = []
    labels = []
    for label, center in enumerate(centers):
        for _ in range(per_blob):
            rows.append(center + rng.normal(0.0, noise, size=center.shape))
            labels.append(label)
    return np.asarray(rows, dtype=np.float32), np.asarray(labels)


@pytest.fixture
def tiny_collection() -> dict[str, Document]:
    return make_collection(12, seed=3)
