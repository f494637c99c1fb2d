from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from tsgkit import evalharness
from tsgkit.config import data_path
from tsgkit.extract import ParserRegistry, RegistryEntry
from tsgkit.identify import fit
from tsgkit.ingest import RawDocument
from tsgkit.siamese import Hyper
from tsgkit.synthesis import load_spec, synthesize

HERE = os.path.dirname(__file__)
GOLDEN_DIR = os.path.join(HERE, "goldens")

# Entries the end-to-end registry is built from, in extraction order.
PIPELINE_SPECS = (
    "powershell_variable",
    "powershell_command",
    "powershell_param_name",
    "powershell_param_value",
    "torus_variable",
    "torus_command",
    "torus_param_name",
    "torus_param_value",
    "merlin_command",
    "merlin_argument",
    "kusto_table",
    "kusto_query",
    "adf_subscription",
    "adf_resourcegroup",
    "jarvis_url",
    "nl_condition",
    "nl_action",
)

# Settings used for every trained artifact in the suite: small enough to
# stay fast, large enough to hit the accuracy gate.
ACC_SEED = 42
ACC_HYPER = Hyper(max_len=32, seed=ACC_SEED, epochs=15)
ACC_N_PAIRS = 2000


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name)


def read_golden(name: str) -> str:
    with open(golden_path(name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def spec_dir() -> str:
    return data_path("specs")


@pytest.fixture(scope="session")
def bundled_specs(spec_dir):
    names = sorted(f for f in os.listdir(spec_dir) if f.endswith(".jsonl"))
    return {name[:-6]: load_spec(os.path.join(spec_dir, name)) for name in names}


@pytest.fixture(scope="session")
def corpus():
    return evalharness.load_corpus(data_path("corpus.jsonl"))


@pytest.fixture(scope="session")
def trained(corpus):
    """(model, vocab, prototypes) trained once on the bundled corpus."""
    vocab, model, protos = fit(corpus, ACC_HYPER, ACC_N_PAIRS)
    return model, vocab, protos


@pytest.fixture(scope="session")
def registry(bundled_specs):
    reg = ParserRegistry()
    for name in PIPELINE_SPECS:
        spec = bundled_specs[name]
        reg.put(
            RegistryEntry(
                spec.component,
                spec.constituent_name,
                synthesize(spec),
                spec.repeats,
                spec.preprocess,
            )
        )
    return reg


@pytest.fixture(scope="session")
def sample_doc():
    with open(data_path("sample_tsg.md"), encoding="utf-8") as fh:
        return RawDocument(fh.read(), "sample_tsg.md")
