"""Repeating constituents and natural-language conditionals.

Parameter name/value pairs repeat inside a command, so the engine learns
parsers for the *first* pair only and extracts iteratively, deleting what
it found and re-running.  Conditional sentences are clause-tagged first so
the parsers can anchor on <CL1>/<CL2> instead of punctuation.

    python3 demos/03_iterative_and_clauses.py
"""

import os

from tsgkit.clauses import tag_clauses
from tsgkit.config import data_path
from tsgkit.extract import ParserRegistry, RegistryEntry, extract, extract_repeating
from tsgkit.ingest import Statement, tokenize
from tsgkit.synthesis import load_spec, synthesize

specs_dir = data_path("specs")


def parser_for(name):
    spec = load_spec(os.path.join(specs_dir, f"{name}.jsonl"))
    return spec, synthesize(spec)


# --- iterative extraction -----------------------------------------------------

_, name_parser = parser_for("powershell_param_name")
_, value_parser = parser_for("powershell_param_value")
command = "Test-PolicyDistributionStatus -Org nybc.com -PolicyId 8dbdfce9 -Verbose True"
print(command)
for name, value in extract_repeating(command, [name_parser, value_parser]):
    print(f"  {name} = {value}")
print()

# --- clause tagging -----------------------------------------------------------

for sentence in [
    "If you need to force the file sync, you can use ForceSync parameter",
    "If the status is False delete the resource",
    "If average latency is > 300 ms",
    "restart the service",
]:
    print(tag_clauses(sentence))
print()

# --- conditional constituents through the registry ----------------------------

registry = ParserRegistry()
for name in ("nl_condition", "nl_action"):
    spec, program = parser_for(name)
    registry.put(
        RegistryEntry(spec.component, spec.constituent_name, program, spec.repeats, spec.preprocess)
    )

for text in [
    "If command returns True, then create an incident",
    "If average latency is > 300 ms",
    "Escalate to the capacity team.",
]:
    stmt = Statement(text, 1, 1, tuple(tokenize(text)))
    parsed = extract(stmt, "natural_language", registry)
    print(f"{text[:52]:<54} -> {parsed.constituents or 'nothing'}"
          + (f"  (missing: {sorted(parsed.missing)})" if parsed.missing else ""))
