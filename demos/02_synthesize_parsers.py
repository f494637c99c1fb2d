"""Synthesize constituent parsers from input/output examples.

Shows the three program shapes the engine produces: a single substring
branch, a multi-branch conditional, and a guarded program learned with
negative examples.

    python3 demos/02_synthesize_parsers.py
"""

import os

from tsgkit.config import data_path
from tsgkit.dsl import EvalFailure, eval_program, serialize
from tsgkit.synthesis import ExampleSpec, load_spec, synthesize

# --- a single branch ----------------------------------------------------------
# Three assignment statements pin down "the variable being assigned".

spec = load_spec(os.path.join(data_path("specs"), "powershell_variable.jsonl"))
program = synthesize(spec)
print("variable parser:", serialize(program))
print("  unseen input ->", eval_program(program, "$queue = Get-Queue -Identity q1"))
print()

# --- a conditional program ----------------------------------------------------
# Kusto table names appear in several syntactic shapes; no single branch
# covers them, so the synthesizer partitions the examples and learns a
# predicate per partition.

spec = load_spec(os.path.join(data_path("specs"), "kusto_table.jsonl"))
program = synthesize(spec)
print("kusto table parser:", serialize(program)[:90], "...")
for text in [
    'StormEvents | where State == "FLORIDA" | count',
    "cluster('X').database('y').AuditTrail | project State",
    "let out = SyncFailures | where Region > 3",
]:
    print(f"  {text[:48]:<50} -> {eval_program(program, text)}")
print()

# --- negative examples --------------------------------------------------------
# output = null marks inputs the program must *fail* on; the engine then
# guards the branch with a predicate that rejects them.

spec = ExampleSpec(
    component="demo",
    constituent_name="port",
    pairs=[("listen :8080 now", "8080"), ("listen :9090 now", "9090")],
    negatives=["no port configured"],
)
program = synthesize(spec)
print("guarded parser:", serialize(program))
print("  listen :7070 now ->", eval_program(program, "listen :7070 now"))
try:
    eval_program(program, "no port configured")
except EvalFailure as err:
    print("  negative input   -> EvalFailure:", err)
