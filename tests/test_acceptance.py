"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""

import hashlib
import math
import os
import time

import numpy as np
import pytest

from conftest import ACC_HYPER, ACC_N_PAIRS, ACC_SEED, read_golden
from oracle_enum import oracle_best_single
from tsgkit.cli import main, run_comparison
from tsgkit.config import Config, data_path
from tsgkit.dsl import EvalFailure, eval_program, serialize
from tsgkit.extract import extract, extract_repeating
from tsgkit.ingest import Statement, clean_document, tokenize
from tsgkit.pipeline import emit_workflow, schematize, schematized_to_json, workflow_to_json
from tsgkit.siamese import (
    Hyper,
    _as_batch,
    _pair_grads_and_loss,
    init_model,
    pair_similarity,
)
from tsgkit.synthesis import synthesize


def ok(criterion: str, detail: str = ""):
    print(f"[acceptance] {criterion}: PASS {detail}".rstrip())


def stmt(text: str) -> Statement:
    return Statement(text, 1, 1, tuple(tokenize(text)))


def test_c01_synthesis_soundness(bundled_specs):
    slowest = 0.0
    for name, spec in sorted(bundled_specs.items()):
        t0 = time.perf_counter()
        prog = synthesize(spec)
        slowest = max(slowest, time.perf_counter() - t0)
        for inp, out in spec.pairs:
            assert eval_program(prog, inp) == out, (name, inp)
        for neg in spec.negatives:
            with pytest.raises(EvalFailure):
                eval_program(prog, neg)
    assert slowest < 10.0, f"slowest constituent took {slowest:.1f}s"
    ok("criterion 1 (synthesis soundness)", f"{len(bundled_specs)} specs, max {slowest:.2f}s")


def test_c02_paper_example_goldens(registry):
    by_key = {(e.component, e.constituent): e.program for e in registry.entries}

    first_param = by_key[("powershell", "param_name")]
    assert (
        eval_program(
            first_param,
            "Test-PolicyDistributionStatus -Org nybc.com -PolicyId 8dbdfce9 -Verbose True",
        )
        == "-Org"
    )

    subscription = by_key[("adf", "subscription")]
    assert (
        eval_program(subscription, "https://adf.azure.com/subsc/SUB1/resourceGroups/rgA")
        == "SUB1"
    )

    table = by_key[("kusto", "table")]
    assert eval_program(table, "TbaFilteringException | where time > ago(1d) | count") == (
        "TbaFilteringException"
    )
    assert (
        eval_program(
            table,
            "cluster('Aznwautotriage').database('autotriage').AutoTriageIcmNer"
            " | sort by IncidentId desc",
        )
        == "AutoTriageIcmNer"
    )
    assert eval_program(table, "let result = newUser | where Failures > 10") == "newUser"

    conditionals = [
        (
            "If you need to force the file sync, you can use ForceSync parameter",
            "you need to force the file sync",
            "you can use ForceSync parameter",
        ),
        ("If command returns True, then create an incident", "command returns True", "create an incident"),
        ("If the status is False delete the resource", "the status is False", "delete the resource"),
        ("If average latency is > 300 ms", "average latency is > 300 ms", None),
    ]
    for text, want_condition, want_action in conditionals:
        parsed = extract(stmt(text), "natural_language", registry)
        assert parsed.constituents["condition"] == want_condition, text
        if want_action is None:
            assert "action" in parsed.missing, text
        else:
            assert parsed.constituents["action"] == want_action, text
    ok("criterion 2 (paper-example goldens)", "powershell/adf/kusto/conditionals exact")


def test_c03_iterative_extraction(registry):
    by_key = {(e.component, e.constituent): e.program for e in registry.entries}
    parsers = [by_key[("powershell", "param_name")], by_key[("powershell", "param_value")]]
    command = "Test-PolicyDistributionStatus -Org nybc.com -PolicyId 8dbdfce9 -Verbose True"
    t0 = time.perf_counter()
    tuples = extract_repeating(command, parsers)
    elapsed = time.perf_counter() - t0
    assert tuples == [("-Org", "nybc.com"), ("-PolicyId", "8dbdfce9"), ("-Verbose", "True")]
    assert elapsed < 0.1, f"{elapsed*1000:.1f} ms"
    ok("criterion 3 (iterative extraction)", f"3 tuples in {elapsed*1000:.2f} ms")


def test_c04_similarity_properties():
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(1000):
        model = init_model(10, Hyper(max_len=8, seed=int(rng.integers(1 << 30))))
        a = tuple(int(v) for v in rng.integers(0, 10, 8))
        b = tuple(int(v) for v in rng.integers(0, 10, 8))
        pab = pair_similarity(model, a, b)
        pba = pair_similarity(model, b, a)
        assert abs(pab - pba) <= 1e-12
        assert 0.0 < pab <= 1.0
        assert pair_similarity(model, a, a) == 1.0
        checked += 1
    ok("criterion 4 (similarity properties)", f"{checked} random model/input pairs")


def test_c05_gradient_check():
    rng = np.random.default_rng(36)
    model = init_model(10, Hyper(max_len=8, seed=36))
    a = tuple(int(v) for v in rng.permutation(8) + 2)
    b = tuple(int(v) for v in rng.permutation(8) + 2)
    ab, bb = _as_batch([a, a]), _as_batch([b, b])
    yb = np.array([1.0, 0.0])
    analytic, _ = _pair_grads_and_loss(model, ab, bb, yb)

    def total_loss():
        _, losses = _pair_grads_and_loss(model, ab, bb, yb)
        return float(losses.sum())

    h = 1e-5
    worst = 0.0
    for name, tensor in model.params.items():
        flat = tensor.reshape(-1)
        if flat.size <= 1200:
            idxs = np.arange(flat.size)
        else:
            idxs = np.sort(np.random.default_rng(3).choice(flat.size, 256, replace=False))
        ga = analytic[name].reshape(-1)[idxs]
        gf = np.empty(len(idxs))
        for j, i in enumerate(idxs):
            orig = flat[i]
            flat[i] = orig + h
            lp = total_loss()
            flat[i] = orig - h
            lm = total_loss()
            flat[i] = orig
            gf[j] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), np.linalg.norm(gf), 1e-12)
        assert rel < 1e-4, f"{name}: {rel:.3e}"
        worst = max(worst, rel)
    ok("criterion 5 (gradient check)", f"worst tensor relative error {worst:.2e}")


def test_c06_prototype_oracle(trained, corpus):
    from tsgkit.identify import compute_prototypes
    from tsgkit.siamese import embed_batch
    from tsgkit.vectorize import encode

    model, vocab, _ = trained
    support: dict[str, list] = {}
    for s, label in corpus:
        support.setdefault(label, []).append(encode(s, vocab, ACC_HYPER.max_len))
    protos = {p.label: p.vector for p in compute_prototypes(model, support)}
    worst = 0.0
    for label, xs in sorted(support.items()):
        embeddings = [embed_batch(model, [x])[0] for x in xs]
        brute = np.array(
            [math.fsum(e[i] for e in embeddings) / len(embeddings) for i in range(128)]
        )
        worst = max(worst, float(np.max(np.abs(protos[label] - brute))))
    assert worst < 1e-9
    ok("criterion 6 (prototype oracle)", f"max coordinate error {worst:.2e}")


def test_c07_classifier_quality(corpus):
    per_class = {}
    for _, label in corpus:
        per_class[label] = per_class.get(label, 0) + 1
    assert len(per_class) == 7
    assert all(n >= 30 for n in per_class.values())

    cfg = Config(max_len=ACC_HYPER.max_len, epochs=ACC_HYPER.epochs, n_pairs=ACC_N_PAIRS)
    t0 = time.perf_counter()
    results = run_comparison(corpus, 5, ACC_SEED, cfg)
    elapsed = time.perf_counter() - t0
    siamese = results["siamese"].accuracy
    knn = results["knn_bow"].accuracy
    assert siamese >= 0.85, f"siamese accuracy {siamese:.3f}"
    assert siamese >= knn, f"siamese {siamese:.3f} < knn {knn:.3f}"
    assert elapsed < 300.0, f"{elapsed:.0f}s"
    ok(
        "criterion 7 (classifier quality)",
        f"siamese {siamese:.3f} >= 0.85 and >= knn {knn:.3f}; {elapsed:.0f}s < 300s",
    )


def test_c08_synthesis_oracle_equivalence(bundled_specs):
    checked = []
    for name, spec in sorted(bundled_specs.items()):
        if any(len(inp) > 40 for inp, _ in spec.pairs):
            continue
        if spec.negatives:
            continue
        expected = oracle_best_single(spec.pairs)
        assert expected is not None, f"{name}: oracle found no single-branch program"
        assert serialize(synthesize(spec)) == serialize(expected), name
        checked.append(name)
    assert checked, "no short specs exercised the oracle"
    ok("criterion 8 (oracle equivalence)", f"specs: {', '.join(checked)}")


def test_c09_determinism(tmp_path):
    corpus_path = data_path("corpus.jsonl")
    digests = []
    for attempt in ("one", "two"):
        art = tmp_path / attempt
        art.mkdir()
        cfg = tmp_path / f"config_{attempt}.txt"
        cfg.write_text(
            f"vocab = {art}/vocab.tsv\nmodel = {art}/model.bin\n"
            f"prototypes = {art}/protos.tsv\nregistry = {art}/registry.txt\n"
            f"max_len = {ACC_HYPER.max_len}\nepochs = 4\nn_pairs = 600\n"
        )
        assert main(["--config", str(cfg), "--seed", str(ACC_SEED), "--quiet",
                     "train", corpus_path]) == 0
        for spec_name in ("powershell_param_name", "kusto_table", "nl_condition"):
            spec = os.path.join(data_path("specs"), f"{spec_name}.jsonl")
            assert main(["--config", str(cfg), "--quiet", "synthesize", spec]) == 0
        blob = b"".join(
            (art / name).read_bytes()
            for name in ("vocab.tsv", "model.bin", "protos.tsv", "registry.txt")
        )
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]
    ok("criterion 9 (determinism)", f"artifact hash {digests[0][:12]}…")


def test_c10_end_to_end_automation(sample_doc, trained, registry):
    model, vocab, protos = trained
    schema = schematize(sample_doc, model, vocab, protos, registry)
    workflow = emit_workflow(schema)

    assert schematized_to_json(schema) == read_golden("sample_tsg.schema.json")
    assert workflow_to_json(workflow) == read_golden("sample_tsg.workflow.json")

    for cell, entry in zip(workflow.cells, schema.entries):
        assert (cell.kind == "code") == entry.automatable

    covered = set()
    for cell in workflow.cells:
        lo, hi = cell.origin_lines
        for line in range(lo, hi + 1):
            assert line not in covered
            covered.add(line)
    cleaned = clean_document(sample_doc)
    for lineno, text in enumerate(cleaned.text.split("\n"), start=1):
        if text.strip():
            assert lineno in covered
    ok(
        "criterion 10 (end-to-end automation)",
        f"{sum(e.automatable for e in schema.entries)}/{len(schema.entries)} lines automatable, goldens match",
    )
