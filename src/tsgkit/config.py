"""Key/value configuration and data-file readers shared by the entry points."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources
from typing import Any, Optional


@dataclass
class Config:
    vocab: str = "artifacts/vocab.tsv"
    model: str = "artifacts/model.bin"
    prototypes: str = "artifacts/prototypes.tsv"
    registry: str = "artifacts/registry.txt"
    lexicon: str = ""  # empty = bundled default
    seed: Optional[int] = None
    max_len: int = 64
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 32
    n_pairs: int = 2000
    min_freq: int = 1
    knn_k: int = 5
    max_occurrence: int = 3
    abs_window: int = 4
    max_atoms: int = 3
    max_branches: int = 6


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _coerce(name: str, raw: str):
    value = raw.strip()
    if name == "seed":
        return int(value)
    kind = _FIELD_TYPES.get(name)
    if kind in ("int", int):
        return int(value)
    if kind in ("float", float):
        return float(value)
    return value


def load_config(path: str) -> Config:
    """Flat `key = value` text; '#' starts a comment."""
    cfg = Config()
    lines = read_lines(path)
    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown key {key!r}")
            setattr(cfg, key, _coerce(key, value))
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    return cfg


def data_path(name: str) -> str:
    """Path of a bundled data file."""
    return str(resources.files("tsgkit").joinpath("data", name))


def read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, split on "\n" alone.

    Text that is not UTF-8 raises ValueError naming `path:line`.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read().split("\n")
        except UnicodeDecodeError:
            raise ValueError(f"{path}:{_first_non_utf8_line(path)}: not UTF-8 text") from None


def parse_int(text: str, name: str) -> int:
    """int(text), or a ValueError that names the field."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} is not an integer: {text!r}") from None


def read_jsonl(path: str) -> list[tuple[int, Any]]:
    """(line number, record) for each non-blank line of a JSON-lines file.

    A syntax error or text that is not UTF-8 raises ValueError naming
    `path:line`.
    """
    records = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            records.append((lineno, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: {exc.msg} at column {exc.colno}") from None
    return records


def _first_non_utf8_line(path: str) -> int:
    # The text reader decodes in chunks, and its error's offset counts from
    # the start of the chunk, not of the file.
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    raise AssertionError(f"{path} decodes as UTF-8")
