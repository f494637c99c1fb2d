import hashlib
import json
import os

import pytest

from tsgkit.cli import main
from tsgkit.config import data_path


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


def test_missing_corpus_is_input_error(tmp_path):
    cfg = config_file(tmp_path)
    assert run("--config", cfg, "--seed", "1", "train", str(tmp_path / "nope.jsonl")) == 2


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


def test_truncated_model_is_input_error(tmp_path, capsys):
    cfg = config_file(tmp_path)
    assert run("--config", cfg, "--seed", "1", "--quiet", "train", tiny_corpus(tmp_path)) == 0
    (tmp_path / "art" / "model.bin").write_bytes(b"TSGSIAM1\x01\x00")
    capsys.readouterr()
    assert run("--config", cfg, "classify", "anything") == 2
    assert capsys.readouterr().err.startswith("error:")


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
        ("synthesize", SPEC_HEADER + '{"input": "a", "output": }\n', 2),
        ("synthesize", SPEC_HEADER + '\n{"input": "a", "output": "a"}\n["a"]\n', 4),
        ("train", '{"text": 5, "label": "x"}\n', 1),
        ("train", '["a", "b"]\n', 1),
        ("train", '{"text": "a", "label": "x"}\n\n{"text": "b" "label": "x"}\n', 3),
    ],
    ids=[
        "spec-header-not-object",
        "spec-repeats-not-boolean",
        "spec-json-syntax",
        "spec-example-not-object-after-blank",
        "corpus-text-not-string",
        "corpus-record-not-object",
        "corpus-json-syntax-after-blank",
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
    "key, value",
    [("max_occurrence", 0), ("abs_window", -1), ("max_atoms", 0), ("max_branches", 0)],
)
def test_out_of_range_bound_is_config_error(tmp_path, capsys, key, value):
    cfg = config_file(tmp_path, **{key: value})
    spec = os.path.join(data_path("specs"), "powershell_param_name.jsonl")
    assert run("--config", cfg, "synthesize", spec) == 3
    assert capsys.readouterr().err.startswith(f"config error: {key} must be at least")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("batch_size", "0", "batch_size must be at least 1"),
        ("batch_size", "-4", "batch_size must be at least 1"),
        ("epochs", "0", "epochs must be at least 1"),
        ("learning_rate", "nan", "learning_rate must be a finite number at least 0"),
        ("learning_rate", "-0.1", "learning_rate must be a finite number at least 0"),
        ("max_len", "3", "max_len must be at least 4"),
    ],
    ids=["batch-zero", "batch-negative", "epochs-zero", "lr-nan", "lr-negative", "max-len-3"],
)
def test_out_of_range_hyper_is_config_error(tmp_path, capsys, key, value, message):
    cfg = config_file(tmp_path)
    flag = "--" + key.replace("_", "-")
    assert run("--config", cfg, "--seed", "1", flag, value, "train", tiny_corpus(tmp_path)) == 3
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


def test_eval_k_larger_than_class_is_input_error(tmp_path):
    cfg = config_file(tmp_path)
    assert run("--config", cfg, "--seed", "1", "eval", tiny_corpus(tmp_path), "--k", "9") == 2


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
