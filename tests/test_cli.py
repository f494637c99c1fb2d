import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgkit.clauses import load_lexicon
from tsgkit.cli import main
from tsgkit.config import data_path, load_config, read_text
from tsgkit.evalharness import ClassMetrics, Metrics, format_metrics_table, load_corpus
from tsgkit.extract import load_registry
from tsgkit.identify import load_prototypes
from tsgkit.synthesis import load_spec
from tsgkit.vectorize import load_vocabulary


def tiny_corpus(tmp_path):
    rows = []
    for c, texts in {
        "kusto": ["T1 | where A > 1 | count", "T2 | where B > 2 | count", "T3 | summarize count() by C"],
        "powershell": ["$a = Get-Process x", "$b = Get-Content y", "Test-ServiceHealthStatus -Org contoso"],
        "natural_language": ["Check the queue first.", "Contact the owners.", "# Steps"],
    }.items():
        rows += [{"text": t, "label": c} for t in texts]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return str(path)


def config_file(tmp_path, **extra):
    lines = {
        "vocab": tmp_path / "art" / "vocab.tsv",
        "model": tmp_path / "art" / "model.bin",
        "prototypes": tmp_path / "art" / "protos.tsv",
        "registry": tmp_path / "art" / "registry.txt",
        "epochs": 2,
        "n_pairs": 40,
        "max_len": 16,
        "batch_size": 8,
    }
    lines.update(extra)
    path = tmp_path / "config.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


def run(*argv):
    return main(list(argv))


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        run("--help")
    assert err.value.code == 0
    assert "synthesize" in capsys.readouterr().out


def test_missing_corpus_is_input_error(tmp_path, capsys):
    cfg = config_file(tmp_path)
    missing = tmp_path / "nope.jsonl"
    assert run("--config", cfg, "--seed", "1", "train", str(missing)) == 2
    assert capsys.readouterr().err == f"error: corpus file not found: {missing}\n"


def test_missing_spec_is_input_error(tmp_path, capsys):
    cfg = config_file(tmp_path)
    missing = tmp_path / "nope.jsonl"
    assert run("--config", cfg, "synthesize", str(missing)) == 2
    assert capsys.readouterr().err == f"error: spec file not found: {missing}\n"


def test_missing_guide_is_input_error(tmp_path, capsys):
    cfg = config_file(tmp_path)
    missing = tmp_path / "nope.md"
    assert run("--config", cfg, "automate", str(missing)) == 2
    assert capsys.readouterr().err == f"error: TSG file not found: {missing}\n"


def test_seed_omitted_is_config_error(tmp_path):
    cfg = config_file(tmp_path)
    assert run("--config", cfg, "train", tiny_corpus(tmp_path)) == 3


def test_bad_config_file_is_config_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("no equals sign here\n")
    assert run("--config", str(bad), "--seed", "1", "train", tiny_corpus(tmp_path)) == 3


def test_train_then_classify(tmp_path, capsys):
    cfg = config_file(tmp_path)
    corpus = tiny_corpus(tmp_path)
    assert run("--config", cfg, "--seed", "1", "--quiet", "train", corpus) == 0
    capsys.readouterr()
    assert run("--config", cfg, "--quiet", "classify", "T9 | where Z > 4 | count") == 0
    assert capsys.readouterr().out.strip() == "kusto"
    assert run("--config", cfg, "classify", "T9 | where Z > 4 | count") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kusto"
    runner_up, margin = lines[1].split("runner-up ")[1].split(", margin ")
    sims = {label: float(sim) for label, sim in (ln.split() for ln in lines[2:])}
    assert set(sims) == {"kusto", "natural_language", "powershell"}
    assert runner_up == max(sorted(set(sims) - {"kusto"}), key=sims.get)
    assert abs(float(margin) - (sims["kusto"] - sims[runner_up])) <= 2e-6


def test_truncated_model_is_input_error(tmp_path, capsys):
    cfg = config_file(tmp_path)
    assert run("--config", cfg, "--seed", "1", "--quiet", "train", tiny_corpus(tmp_path)) == 0
    path = tmp_path / "art" / "model.bin"
    path.write_bytes(b"TSGSIAM1\x01\x00")
    capsys.readouterr()
    assert run("--config", cfg, "classify", "anything") == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: model file is truncated")


SPEC_HEADER = '{"component": "x", "constituent": "y"}\n'


@pytest.mark.parametrize(
    "command, body, line",
    [
        ("synthesize", '[1]\n{"input": "a", "output": "a"}\n', 1),
        (
            "synthesize",
            '{"component": "x", "constituent": "y", "repeats": "no"}\n'
            '{"input": "a", "output": "a"}\n',
            1,
        ),
        (
            "synthesize",
            '{"component": "x", "constituent": "y", "preprocess": ["bogus"]}\n'
            '{"input": "a", "output": "a"}\n',
            1,
        ),
        ("synthesize", SPEC_HEADER + '{"input": "a", "output": }\n', 2),
        ("synthesize", SPEC_HEADER + '\n{"input": "a", "output": "a"}\n["a"]\n', 4),
        ("train", '{"text": 5, "label": "x"}\n', 1),
        ("train", '["a", "b"]\n', 1),
        ("train", '{"text": "a", "label": "x"}\n\n{"text": "b" "label": "x"}\n', 3),
        ("train", '{"text": "a", "label": "x"}\n{"text": "   ", "label": "x"}\n', 2),
        ("train", '{"text": "", "label": "x"}\n', 1),
        (
            "synthesize",
            '{"component": "x", "constituent": "y", "preprocess": ["tag_clauses"]}\n'
            '{"input": "if a then b", "output": "a"}\n{"input": "", "output": "a"}\n',
            3,
        ),
    ],
    ids=[
        "spec-header-not-object",
        "spec-repeats-not-boolean",
        "spec-unknown-preprocess-flag",
        "spec-json-syntax",
        "spec-example-not-object-after-blank",
        "corpus-text-not-string",
        "corpus-record-not-object",
        "corpus-json-syntax-after-blank",
        "corpus-text-blank",
        "corpus-text-empty",
        "spec-tag-clauses-input-empty",
    ],
)
def test_malformed_record_is_input_error(tmp_path, capsys, command, body, line):
    cfg = config_file(tmp_path)
    path = tmp_path / "input.jsonl"
    path.write_text(body)
    assert run("--config", cfg, "--seed", "1", command, str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ")
    assert err.count(str(path)) == 1


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "empty spec file"),
        ("\n  \n", "empty spec file"),
        (
            SPEC_HEADER + '{"input": "a", "output": null}\n',
            "spec needs at least one input/output pair",
        ),
    ],
    ids=["empty", "blank-lines", "negatives-only"],
)
def test_spec_without_pairs_is_input_error_naming_the_file(tmp_path, capsys, body, message):
    cfg = config_file(tmp_path)
    path = tmp_path / "spec.jsonl"
    path.write_text(body)
    assert run("--config", cfg, "synthesize", str(path)) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "command, body",
    [
        ("train", b'{"text": "a", "label": "x"}\n' * 400 + b'{"text": "\xff", "label": "x"}\n'),
        ("synthesize", SPEC_HEADER.encode() + b'{"input": "a\xff", "output": "a"}\n'),
    ],
    # The corpus is longer than one chunk of the text reader's decoding.
    ids=["corpus", "spec"],
)
def test_input_that_is_not_utf8_names_the_line(tmp_path, capsys, command, body):
    cfg = config_file(tmp_path)
    path = tmp_path / "input.jsonl"
    path.write_bytes(body)
    line = body.count(b"\n")
    assert run("--config", cfg, "--seed", "1", command, str(path)) == 2
    assert capsys.readouterr().err == f"error: {path}:{line}: not UTF-8 text\n"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """An artifact directory from `train` plus a one-entry registry from `synthesize`."""
    root = tmp_path_factory.mktemp("fit")
    cfg = config_file(root)
    assert run("--config", cfg, "--seed", "1", "--quiet", "train", tiny_corpus(root)) == 0
    spec = os.path.join(data_path("specs"), "kusto_query.jsonl")
    assert run("--config", cfg, "--quiet", "synthesize", spec) == 0
    return root / "art"


@pytest.mark.parametrize(
    "name, line, corrupt",
    [
        ("vocab.tsv", 3, lambda text: text.replace("\t", " ")),
        ("vocab.tsv", 1, lambda text: text.split("\t")[0] + "\tseven"),
        ("protos.tsv", 2, lambda text: text.rsplit(",", 1)[0]),
        ("protos.tsv", 1, lambda text: text.replace(",", ",x,", 1)),
        ("registry.txt", 2, lambda text: "\t".join(text.split("\t")[:2])),
        ("registry.txt", 2, lambda text: text.rsplit("\t", 1)[0] + "\tsub(AbsPos(0), "),
        ("lexicon.txt", 2, lambda text: "[clauses]"),
    ],
    ids=[
        "vocab-line-without-tab",
        "vocab-index-not-int",
        "prototype-one-value-short",
        "prototype-value-not-float",
        "registry-two-fields",
        "registry-bad-program",
        "lexicon-unknown-section",
    ],
)
def test_corrupt_artifact_line_is_input_error(tmp_path, capsys, artifacts, name, line, corrupt):
    shutil.copytree(artifacts, tmp_path / "art")
    lexicon = tmp_path / "art" / "lexicon.txt"
    lexicon.write_text("[subordinators]\nif\n[second_clause_signals]\nthen\n")
    cfg = config_file(tmp_path, lexicon=lexicon)
    path = tmp_path / "art" / name
    lines = path.read_text().split("\n")
    lines[line - 1] = corrupt(lines[line - 1])
    path.write_text("\n".join(lines))
    tsg = tmp_path / "t.md"
    tsg.write_text("StormEvents | count\n")
    assert run("--config", cfg, "automate", str(tsg)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ")
    assert err.count(str(path)) == 1


def with_field(line, index, value):
    """A registry line with its field `index` replaced."""
    fields = line.split("\t", 4)
    fields[index] = value
    return "\t".join(fields)


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        (
            "vocab.tsv",
            lambda text: text.replace("\t", " "),
            "expected 2 tab-separated fields (token, id), got 1",
        ),
        ("vocab.tsv", lambda text: text.split("\t")[0] + "\t7.5", "id is not an integer: '7.5'"),
        (
            "protos.tsv",
            lambda text: text + "\textra",
            "expected 3 tab-separated fields (label, support count, values), got 4",
        ),
        (
            "protos.tsv",
            lambda text: text.replace("\t", "\tmany", 1),
            "support count is not an integer: 'many3'",
        ),
        (
            "registry.txt",
            lambda text: "\t".join(text.split("\t")[:2]),
            "expected 5 tab-separated fields (component, constituent, repeats, "
            "preprocess, program), got 2",
        ),
        (
            "registry.txt",
            lambda text: with_field(text, 2, "x"),
            "repeats must be 0 or 1, got 'x'",
        ),
        (
            "registry.txt",
            lambda text: with_field(text, 3, "tag_clauses,bogus"),
            "unknown preprocess flag 'bogus'",
        ),
    ],
    ids=[
        "vocab-fields", "vocab-id", "prototype-fields", "prototype-count",
        "registry-fields", "registry-repeats", "registry-flag",
    ],
)
def test_artifact_loader_error_names_the_format(
    tmp_path, capsys, artifacts, name, corrupt, message
):
    shutil.copytree(artifacts, tmp_path / "art")
    cfg = config_file(tmp_path)
    path = tmp_path / "art" / name
    lines = path.read_text().split("\n")
    lines[1] = corrupt(lines[1])
    path.write_text("\n".join(lines))
    tsg = tmp_path / "t.md"
    tsg.write_text("StormEvents | count\n")
    assert run("--config", cfg, "automate", str(tsg)) == 2
    assert capsys.readouterr().err == f"error: {path}:2: {message}\n"


@pytest.mark.parametrize(
    "name", ["vocab.tsv", "protos.tsv", "registry.txt", "lexicon.txt"],
    ids=["vocabulary", "prototypes", "registry", "lexicon"],
)
def test_artifact_that_is_not_utf8_names_the_line(tmp_path, capsys, artifacts, name):
    shutil.copytree(artifacts, tmp_path / "art")
    lexicon = tmp_path / "art" / "lexicon.txt"
    lexicon.write_text("[subordinators]\nif\n[second_clause_signals]\nthen\n")
    cfg = config_file(tmp_path, lexicon=lexicon)
    path = tmp_path / "art" / name
    lines = path.read_bytes().split(b"\n")
    lines[1] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    tsg = tmp_path / "t.md"
    tsg.write_text("StormEvents | count\n")
    assert run("--config", cfg, "automate", str(tsg)) == 2
    assert capsys.readouterr().err == f"error: {path}:2: not UTF-8 text\n"


def test_config_that_is_not_utf8_is_config_error_naming_the_line(tmp_path, capsys):
    cfg = config_file(tmp_path)
    with open(cfg, "ab") as fh:
        fh.write(b"# caf\xe9\nepochs = 3\n")
    # config_file writes eight lines; the comment is the ninth.
    assert run("--config", cfg, "classify", "anything") == 3
    assert capsys.readouterr().err == f"config error: {cfg}:9: not UTF-8 text\n"


def test_registry_of_repeating_entries_with_differing_flags_is_input_error(
    tmp_path, capsys, artifacts
):
    shutil.copytree(artifacts, tmp_path / "art")
    cfg = config_file(tmp_path)
    path = tmp_path / "art" / "registry.txt"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('ps\tcmd\t1\tsplit_pipes\tconst("x")\nps\twhole\t1\t-\tconst("y")\n')
    tsg = tmp_path / "t.md"
    tsg.write_text("StormEvents | count\n")
    assert run("--config", cfg, "automate", str(tsg)) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:4: repeating ps.whole has preprocess flags [], "
        "but repeating ps.cmd has ['split_pipes']\n"
    )


def test_synthesize_of_conflicting_repeating_spec_keeps_the_registry(tmp_path, capsys):
    cfg = config_file(tmp_path)
    spec = os.path.join(data_path("specs"), "powershell_param_name.jsonl")
    assert run("--config", cfg, "--quiet", "synthesize", spec) == 0
    registry = tmp_path / "art" / "registry.txt"
    before = registry.read_bytes()
    conflicting = tmp_path / "whole.jsonl"
    conflicting.write_text(
        '{"component": "powershell", "constituent": "whole", "repeats": true}\n'
        '{"input": "Get-X -A 1", "output": "Get-X -A 1"}\n'
    )
    capsys.readouterr()
    assert run("--config", cfg, "--quiet", "synthesize", str(conflicting)) == 2
    assert capsys.readouterr() == (
        "",
        "error: repeating powershell.whole has preprocess flags [], "
        "but repeating powershell.param_name has ['split_pipes']\n",
    )
    assert registry.read_bytes() == before


# Each line-oriented input, as what its loader gives in comparable form.
LINE_LOADERS = {
    "vocab.tsv": load_vocabulary,
    "protos.tsv": lambda path: [
        (p.label, p.support_count, p.vector.tolist()) for p in load_prototypes(path)
    ],
    "registry.txt": load_registry,
    "lexicon.txt": load_lexicon,
    "config.txt": load_config,
    "corpus.jsonl": load_corpus,
    "spec.jsonl": load_spec,
}


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_inputs_with_other_line_ends_load_the_same(tmp_path, artifacts, newline):
    shutil.copytree(artifacts, tmp_path / "art")
    cfg = config_file(tmp_path)
    sources = {
        "vocab.tsv": tmp_path / "art" / "vocab.tsv",
        "protos.tsv": tmp_path / "art" / "protos.tsv",
        "registry.txt": tmp_path / "art" / "registry.txt",
        "lexicon.txt": data_path("lexicon.txt"),
        "config.txt": cfg,
        "corpus.jsonl": data_path("corpus.jsonl"),
        "spec.jsonl": os.path.join(data_path("specs"), "nl_condition.jsonl"),
        "sample_tsg.md": data_path("sample_tsg.md"),
    }
    other = tmp_path / "other"
    other.mkdir()
    for name, source in sources.items():
        with open(source, "rb") as fh:
            (other / name).write_bytes(fh.read().replace(b"\n", newline))
    for name, load in LINE_LOADERS.items():
        assert load(str(other / name)) == load(str(sources[name])), name
    bad = other / "bad.txt"
    bad.write_bytes(b"a" + newline + newline + b"\xff" + newline)
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:3: not UTF-8 text$"):
        read_text(str(bad))
    outputs = []
    for guide in (sources["sample_tsg.md"], other / "sample_tsg.md"):
        out_dir = tmp_path / f"out{len(outputs)}"
        argv = ["automate", str(guide), "--out-dir", str(out_dir)]
        assert run("--config", cfg, "--quiet", *argv) == 0
        outputs.append([(out_dir / f).read_bytes() for f in sorted(os.listdir(out_dir))])
    assert outputs[0] == outputs[1]


def test_vocabulary_id_outside_the_model_is_input_error(tmp_path, capsys, artifacts):
    shutil.copytree(artifacts, tmp_path / "art")
    cfg = config_file(tmp_path)
    path = tmp_path / "art" / "vocab.tsv"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("unseen\t9999\n")
    # The statement does not hold the token, so only the load can catch it.
    assert run("--config", cfg, "classify", "anything") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: id 9999 is outside the model's vocabulary of ")


def test_model_header_max_len_above_limit_is_input_error(tmp_path, capsys, artifacts):
    shutil.copytree(artifacts, tmp_path / "art")
    cfg = config_file(tmp_path)
    path = tmp_path / "art" / "model.bin"
    blob = bytearray(path.read_bytes()[:-32])
    # The header is the 8-byte magic, the format version (4 bytes), the
    # vocabulary size (8 bytes), then max_len (8 bytes, little-endian).
    blob[20:28] = (1025).to_bytes(8, "little")
    path.write_bytes(bytes(blob) + hashlib.sha256(blob).digest())
    assert run("--config", cfg, "classify", "anything") == 2
    assert capsys.readouterr().err == f"error: {path}: max_len must be at most 1024\n"


def test_guide_that_is_not_utf8_names_the_file(tmp_path, capsys, artifacts):
    shutil.copytree(artifacts, tmp_path / "art")
    cfg = config_file(tmp_path)
    tsg = tmp_path / "t.md"
    tsg.write_bytes(b"StormEvents | count\n\xff\n")
    assert run("--config", cfg, "automate", str(tsg)) == 2
    assert capsys.readouterr().err == f"error: {tsg}:2: not UTF-8 text\n"


def test_config_value_of_wrong_type_names_line(tmp_path, capsys):
    cfg = config_file(tmp_path, epochs="abc")
    assert run("--config", cfg, "--seed", "1", "train", tiny_corpus(tmp_path)) == 3
    # epochs is the config file's fifth line.
    assert capsys.readouterr().err.startswith(f"config error: {cfg}:5: invalid literal for int()")


@pytest.mark.parametrize(
    "key, value",
    [("max_occurrence", 0), ("abs_window", -1), ("max_atoms", 0), ("max_branches", 0)],
)
def test_out_of_range_bound_is_config_error(tmp_path, capsys, key, value):
    cfg = config_file(tmp_path, **{key: value})
    spec = os.path.join(data_path("specs"), "powershell_param_name.jsonl")
    assert run("--config", cfg, "synthesize", spec) == 3
    assert capsys.readouterr().err.startswith(f"config error: {key} must be at least")


# The `fit` each command calls; `eval` fits its folds inside `evalharness`.
FIT_SITES = {"train": "tsgkit.cli.fit", "eval": "tsgkit.evalharness.fit"}
# Arguments after the corpus: the tiny corpus has 3 statements per class,
# so `eval` needs 3 folds to get as far as a fit.
AFTER_CORPUS = {"train": (), "eval": ("--k", "3")}


def forbid_fit(monkeypatch, command):
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted")

    monkeypatch.setattr(FIT_SITES[command], no_fit)


HYPER_CASES = {
    "batch-zero": ("batch_size", "0", "batch_size must be at least 1"),
    "batch-negative": ("batch_size", "-4", "batch_size must be at least 1"),
    "epochs-zero": ("epochs", "0", "epochs must be at least 1"),
    "lr-nan": ("learning_rate", "nan", "learning_rate must be a finite number at least 0"),
    "lr-negative": ("learning_rate", "-0.1", "learning_rate must be a finite number at least 0"),
    "max-len-3": ("max_len", "3", "max_len must be at least 4"),
    "max-len-1025": ("max_len", "1025", "max_len must be at most 1024"),
    "max-len-huge": ("max_len", "100000000000", "max_len must be at most 1024"),
}


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        pytest.param(command, *case, id=name if command == "train" else f"{name}-eval")
        for command in ("train", "eval")
        for name, case in HYPER_CASES.items()
    ],
)
def test_out_of_range_hyper_is_config_error(
    tmp_path, capsys, monkeypatch, command, key, value, message
):
    forbid_fit(monkeypatch, command)
    cfg = config_file(tmp_path)
    flag = "--" + key.replace("_", "-")
    argv = [flag, value, command, tiny_corpus(tmp_path), *AFTER_CORPUS[command]]
    assert run("--config", cfg, "--seed", "1", *argv) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n_pairs", "0", "n_pairs must be at least 2"),
        ("n_pairs", "-3", "n_pairs must be at least 2"),
        ("n_pairs", "1", "n_pairs must be at least 2"),
        ("min_freq", "0", "min_freq must be at least 1"),
    ],
    ids=["pairs-zero", "pairs-negative", "pairs-one", "min-freq-zero"],
)
def test_out_of_range_fit_count_is_config_error_before_any_fit(
    tmp_path, capsys, monkeypatch, command, key, value, message
):
    forbid_fit(monkeypatch, command)
    cfg = config_file(tmp_path)
    flag = "--" + key.replace("_", "-")
    argv = [flag, value, command, tiny_corpus(tmp_path), *AFTER_CORPUS[command]]
    assert run("--config", cfg, "--seed", "1", *argv) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "art").exists()


def test_classify_without_artifacts_is_config_error(tmp_path):
    cfg = config_file(tmp_path)
    assert run("--config", cfg, "classify", "anything") == 3


def test_train_is_byte_identical_across_runs(tmp_path):
    corpus = tiny_corpus(tmp_path)
    digests = []
    for attempt in ("one", "two"):
        sub = tmp_path / attempt
        sub.mkdir()
        cfg = config_file(
            tmp_path,
            vocab=sub / "vocab.tsv",
            model=sub / "model.bin",
            prototypes=sub / "protos.tsv",
        )
        assert run("--config", cfg, "--seed", "7", "--quiet", "train", corpus) == 0
        blob = b"".join(
            (sub / name).read_bytes() for name in ("vocab.tsv", "model.bin", "protos.tsv")
        )
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]


def test_synthesize_writes_registry_and_prints_program(tmp_path, capsys):
    cfg = config_file(tmp_path)
    spec = os.path.join(data_path("specs"), "powershell_param_name.jsonl")
    assert run("--config", cfg, "--quiet", "synthesize", spec) == 0
    out = capsys.readouterr().out
    assert out.startswith("sub(") or out.startswith("switch(")
    registry_path = tmp_path / "art" / "registry.txt"
    assert registry_path.exists()
    first = registry_path.read_bytes()
    assert run("--config", cfg, "--quiet", "synthesize", spec) == 0
    assert registry_path.read_bytes() == first


def test_contradictory_spec_exits_four(tmp_path, capsys):
    cfg = config_file(tmp_path)
    bad = tmp_path / "bad_spec.jsonl"
    bad.write_text(
        '{"component": "x", "constituent": "y", "repeats": false}\n'
        '{"input": "same input", "output": "same"}\n'
        '{"input": "same input", "output": "input"}\n'
    )
    assert run("--config", cfg, "synthesize", str(bad)) == 4
    assert "unmet" in capsys.readouterr().err


def test_parse_command(tmp_path, capsys):
    cfg = config_file(tmp_path)
    spec = os.path.join(data_path("specs"), "adf_subscription.jsonl")
    assert run("--config", cfg, "--quiet", "synthesize", spec) == 0
    capsys.readouterr()
    assert (
        run(
            "--config", cfg, "parse", "--component", "adf",
            "https://adf.azure.com/subsc/OPS9/resourceGroups/rgQ",
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["constituents"]["subscription"] == "OPS9"


def test_eval_k_larger_than_class_is_input_error(tmp_path, capsys):
    cfg = config_file(tmp_path)
    assert run("--config", cfg, "--seed", "1", "eval", tiny_corpus(tmp_path), "--k", "9") == 2
    assert capsys.readouterr().err == "error: class 'kusto' has 3 < k=9 examples\n"


def test_eval_prints_and_writes_the_same_metrics_on_every_run(tmp_path, capsys):
    cfg = config_file(tmp_path, epochs=1, n_pairs=8, knn_k=2)
    corpus = tiny_corpus(tmp_path)
    runs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        argv = ["--seed", "3", "eval", corpus, "--k", "2", "--json-out", str(out)]
        assert run("--config", cfg, *argv) == 0
        runs.append((capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]
    stdout, blob = runs[0]
    results = json.loads(blob)
    assert list(results) == ["siamese", "knn_bow"]
    tables = []
    for name, m in results.items():
        assert list(m) == ["accuracy", "macro_f1", "per_class"]
        assert list(m["per_class"]) == ["kusto", "natural_language", "powershell"]
        for cm in m["per_class"].values():
            assert list(cm) == ["precision", "recall", "f1", "support"]
        per_class = {label: ClassMetrics(**cm) for label, cm in m["per_class"].items()}
        metrics = Metrics(**{**m, "per_class": per_class})
        tables.append(format_metrics_table(name, metrics) + "\n\n")
    assert stdout == "".join(tables)


@pytest.mark.parametrize("knn_k", ["0", "-1"])
def test_eval_knn_k_below_one_is_config_error_before_any_fit(
    tmp_path, capsys, monkeypatch, knn_k
):
    forbid_fit(monkeypatch, "eval")
    cfg = config_file(tmp_path)
    corpus = tiny_corpus(tmp_path)
    argv = ["--knn-k", knn_k, "eval", corpus, *AFTER_CORPUS["eval"]]
    assert run("--config", cfg, "--seed", "1", *argv) == 3
    assert "knn_k must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["1", "0"])
def test_eval_k_below_two_is_config_error_before_reading_corpus(tmp_path, capsys, k):
    cfg = config_file(tmp_path)
    missing = str(tmp_path / "no-such-corpus.jsonl")
    assert run("--config", cfg, "--seed", "1", "eval", missing, "--k", k) == 3
    assert capsys.readouterr().err == "config error: k must be at least 2\n"


def test_automate_missing_model_is_config_error(tmp_path):
    cfg = config_file(tmp_path)
    tsg = tmp_path / "t.md"
    tsg.write_text("hello\n")
    assert run("--config", cfg, "automate", str(tsg)) == 3


def test_automate_empty_file_succeeds(tmp_path):
    cfg = config_file(tmp_path)
    corpus = tiny_corpus(tmp_path)
    assert run("--config", cfg, "--seed", "1", "--quiet", "train", corpus) == 0
    spec = os.path.join(data_path("specs"), "kusto_query.jsonl")
    assert run("--config", cfg, "--quiet", "synthesize", spec) == 0
    tsg = tmp_path / "empty.md"
    tsg.write_text("")
    assert run("--config", cfg, "--quiet", "automate", str(tsg)) == 0
    schema = json.loads((tmp_path / "empty.schema.json").read_text())
    assert schema["entries"] == []
    workflow = json.loads((tmp_path / "empty.workflow.json").read_text())
    assert workflow["cells"] == []


def test_automate_creates_the_out_dir(tmp_path, capsys, artifacts):
    shutil.copytree(artifacts, tmp_path / "art")
    cfg = config_file(tmp_path)
    tsg = tmp_path / "t.md"
    tsg.write_text("StormEvents | count\n")
    out_dir = tmp_path / "new" / "out"
    assert run("--config", cfg, "--quiet", "automate", str(tsg), "--out-dir", str(out_dir)) == 0
    assert sorted(os.listdir(out_dir)) == ["t.schema.json", "t.workflow.json"]
    assert capsys.readouterr().err == ""


# --- mutated inputs ----------------------------------------------------------

# The command that reads each input, by its path in the input directory.
# Every command also reads the configuration.
AUTOMATE = ["automate", "{root}/t.md", "--out-dir", "{root}/out"]
MUTANT_COMMANDS = {
    "art/vocab.tsv": AUTOMATE,
    "art/protos.tsv": AUTOMATE,
    "art/model.bin": AUTOMATE,
    "art/registry.txt": AUTOMATE,
    "art/lexicon.txt": AUTOMATE,
    "config.txt": AUTOMATE,
    "t.md": AUTOMATE,
    "corpus.jsonl": ["--seed", "1", "train", "{root}/corpus.jsonl"],
    "spec.jsonl": ["synthesize", "{root}/spec.jsonl"],
}
PATH_KEYS = ("vocab", "model", "prototypes", "registry", "lexicon")


@pytest.fixture(scope="module")
def valid_inputs(artifacts, tmp_path_factory):
    """A directory with a valid copy of every input `MUTANT_COMMANDS` names,
    bar the configuration, which names paths inside each copy."""
    root = tmp_path_factory.mktemp("inputs")
    shutil.copytree(artifacts, root / "art")
    shutil.copy(data_path("lexicon.txt"), root / "art" / "lexicon.txt")
    shutil.copy(tiny_corpus(tmp_path_factory.mktemp("corpus")), root / "corpus.jsonl")
    shutil.copy(os.path.join(data_path("specs"), "demo_domain.jsonl"), root / "spec.jsonl")
    (root / "t.md").write_text(
        "# Stale mailboxes\n\nRun `Get-Mailbox -Identity x | Format-List`.\n\n"
        "```\nStormEvents | where State == 'TEXAS' | count\n```\n"
    )
    return root


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for at, kind, byte in edits:
        i = at % (len(out) + 1)
        if kind == "insert":
            out[i:i] = bytes([byte])
        elif i < len(out):
            if kind == "delete":
                del out[i]
            else:
                out[i] = byte
    return bytes(out)


def config_paths(path: str) -> dict[str, str]:
    """The paths a configuration names, or none where it does not load."""
    try:
        cfg = load_config(path)
    except ValueError:
        return {}
    return {key: getattr(cfg, key) for key in PATH_KEYS}


EDIT = st.tuples(
    st.integers(0, 1 << 16),
    st.sampled_from(["replace", "insert", "delete"]),
    st.one_of(st.sampled_from(list(b'\t\n\r ,.=-"{}[]0#\\\xff')), st.integers(0, 255)),
)


@settings(max_examples=45, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(MUTANT_COMMANDS)), st.lists(EDIT, min_size=1, max_size=3))
def test_mutated_input_fails_cleanly_naming_its_file(valid_inputs, name, edits):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        shutil.copytree(valid_inputs, root, dirs_exist_ok=True)
        cfg = config_file(root, lexicon=root / "art" / "lexicon.txt", epochs=1, n_pairs=8)
        before = config_paths(cfg)
        path = root / name
        path.write_bytes(mutate(path.read_bytes(), edits))
        argv = [arg.format(root=root) for arg in MUTANT_COMMANDS[name]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("--config", cfg, "--quiet", *argv)
        message = err.getvalue()
        assert code in (0, 2, 3, 4), message
        assert "Traceback" not in message
        if code in (2, 3):
            # A mutated configuration may now name another path.
            now = config_paths(cfg)
            named = [str(path)] + [now[k] for k in now if now[k] != before[k]]
            assert any(p in message for p in named), (message, named)
