"""Key/value configuration and data-file readers shared by the entry points."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, fields
from importlib import resources
from operator import length_hint
from typing import Any, Iterable, Iterator, Optional


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
    with numbered_lines(path) as lines:
        for _, raw in lines:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown key {key!r}")
            setattr(cfg, key, _coerce(key, value))
    return cfg


def data_path(name: str) -> str:
    """Path of a bundled data file."""
    return str(resources.files("tsgkit").joinpath("data", name))


def read_text(path: str) -> str:
    """The text of a UTF-8 file, with "\r\n" and "\r" read as "\n".

    Text that is not UTF-8 raises ValueError naming `path:line`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines() ends lines where this reader does; the bad byte
        # is on the last line of the bytes before it and one more.
        line = len((data[: exc.start] + b".").splitlines())
        raise ValueError(f"{path}:{line}: not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


@contextmanager
def numbered_lines(path: str) -> Iterator[Iterator[tuple[int, str]]]:
    """(line number, line) for each line of a UTF-8 text file.

    Only "\n" (after `read_text`) ends a line: str.splitlines() would also
    split on characters a line may hold, such as U+2028.  A ValueError
    raised in the with-block leaves it as `path:line: message`, naming the
    line last yielded.
    """
    lines = read_text(path).split("\n")
    rest = iter(lines)
    try:
        yield enumerate(rest, start=1)
    except ValueError as exc:
        # A list iterator's length hint is exact: the lines not yet handed out.
        lineno = len(lines) - length_hint(rest)
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def json_lines(lines: Iterable[tuple[int, str]]) -> Iterator[tuple[int, Any]]:
    """(line number, record) for each non-blank line of `numbered_lines`."""
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{exc.msg} at column {exc.colno}") from None
        yield lineno, record


def parse_int(text: str, name: str) -> int:
    """int(text), or a ValueError that names the field."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} is not an integer: {text!r}") from None
