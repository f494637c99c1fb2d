"""Seeded synthetic labeled corpus of TSG statements.

Each component type gets a handful of fixed exemplar statements plus
template-generated variations.  URL-heavy classes draw from small pools
so that held-out folds still see known link tokens.
"""

from __future__ import annotations

import numpy as np

CLASSES = ("adf", "jarvis", "kusto", "powershell", "torus", "merlin", "natural_language")

_KUSTO_TABLES = (
    "StormEvents", "IcmIncidents", "RequestLogs", "TbaFilteringException",
    "AutoTriageIcmNer", "HeartbeatEvents", "SyncFailures", "AuditTrail",
)
_KUSTO_COLS = ("State", "Status", "Latency", "TimeGenerated", "IncidentId", "TenantId", "Region")
_KUSTO_VALS = ("FLORIDA", "FAILED", "PENDING", "ACTIVE", "EASTUS")
_KUSTO_DURS = ("1d", "7d", "30m", "12h")
_KUSTO_NS = ("10", "50", "100", "300")
_KUSTO_CLUSTERS = ("Aznwautotriage", "IcmCluster", "OpsData")
_KUSTO_DBS = ("autotriage", "incidents", "telemetry")

_PS_VARS = ("$m", "$db", "$tenant", "$result", "$out", "$cfg")
_PS_THINGS = ("tenant", "subscription", "mailbox", "cluster")
_PS_TEST_NOUNS = ("PolicyDistribution", "ServiceHealth", "QueueBacklog")
_PS_SET_NOUNS = ("MailboxAuditLog", "OwaPolicy", "RetentionFlag")
_PS_PARAMS = ("Org", "Identity", "Scope")
_PS_VALUES = ("nybc.com", "contoso.org", "lee", "True", "False", "8dbdfce9")
_PS_GET_NOUNS = ("Process", "Content", "Service")

_TORUS_VARS = ("$rules", "$mbx", "$policy", "$agents", "$org2")
_TORUS_REFS = ("$org", "$identity", "$user", "$policyName", "$agent")
_TORUS_CMDS = (
    "Get-TransportRule -Organization",
    "Get-Mailbox -Identity",
    "Get-DlpPolicy -Name",
    "Enable-TransportAgent -Identity",
    "Get-OrganizationConfig -Organization",
)

_MERLIN_CMDS = (
    "Update-GridTenantProvisioningStamp",
    "Repair-GridSiteCache",
    "Sync-GridTenantDirectory",
    "Reset-GridFarmWorker",
    "Test-GridStampHealth",
)
_MERLIN_ARGS = ("$TenantId", "$SiteId", "$StampId", "$FarmId", "$WorkerId")

_ADF_URLS = tuple(
    f"https://adf.azure.com/subsc/{sub}/resourceGroups/{rg}"
    for sub, rg in (
        ("SUB1", "rgA"), ("SUB1", "rgOps"), ("SUB7", "data"), ("SUB7", "prod-rg"),
        ("OPS3", "rgA"), ("OPS3", "data"), ("prod-sub", "rgOps"), ("prod-sub", "rgA"),
        ("contoso-main", "prod-rg"), ("contoso-main", "data"), ("7f3e22", "rgOps"),
        ("7f3e22", "prod-rg"),
    )
)

_JARVIS_URLS = tuple(
    f"https://jarvis.msft.net/dashboard/share/{name}"
    for name in (
        "MailboxSync", "AADLatency", "IcmQueue", "StampHealth", "SyncErrors",
        "TenantOnboarding", "QuotaUsage", "FarmRollout", "AuditSpikes",
        "CacheHitRate", "MTAStatus", "OwaErrors",
    )
)

_NL_TITLES = ("Mitigation", "Diagnose", "Background", "Escalation", "Validation", "Cleanup")
_NL_THINGS = (
    "the provisioning queue", "the sync pipeline", "the tenant configuration",
    "the audit dashboard", "the farm topology",
)
_NL_TEAMS = ("on-call engineer", "capacity team", "reporting team", "directory owners")
_NL_CONDS = (
    "the queue keeps growing", "the error persists", "latency stays high",
    "the tenant is still stale",
)
_NL_ACTIONS = (
    "escalate to the owning team", "rerun the previous step",
    "collect fresh diagnostics", "open a tracking incident",
)

FIXED: dict[str, tuple[str, ...]] = {
    "kusto": (
        'StormEvents | where State == "FLORIDA" | count',
        "TbaFilteringException | where time > ago(1d) | count",
        "cluster('Aznwautotriage').database('autotriage').AutoTriageIcmNer | sort by IncidentId desc",
        "let result = newUser | where Failures > 10",
    ),
    "powershell": (
        '$tenant = "<your tenant id/name>"',
        "Test-PolicyDistributionStatus -Org nybc.com -PolicyId 8dbdfce9 -Verbose True",
        "$m | Format-List $db",
        "$mb = Get-Mailbox senderOrRecipientMailbox",
        "EOP: $rulePackage = Get-DlpSensitiveInformation -Org contoso",
    ),
    "torus": (
        "$rules = Get-TransportRule -Organization $org",
        "$m = Get-Mailbox -Arbitrate -Identity $identity",
    ),
    "merlin": (
        "Update-GridTenantProvisioningStamp $TenantId",
    ),
    "adf": ("http://adf.azure.com/factory=resourceGroup/y/.../factories/z",) + _ADF_URLS[:2],
    "jarvis": ("https://jarvis.msft.net/dashboard/share/xxx",) + _JARVIS_URLS[:2],
    "natural_language": (
        "If the status is green, the problem is self-resolved.",
        "If the status is False delete the resource",
        "Follow these steps when tenants report stale mailboxes.",
        "Check recent storm events first:",
        "# Mailbox sync failures",
        "## Diagnose",
    ),
}


def _gen_kusto(rng) -> str:
    shape = rng.integers(5)
    t = _pick(rng, _KUSTO_TABLES)
    c = _pick(rng, _KUSTO_COLS)
    if shape == 0:
        return f'{t} | where {c} == "{_pick(rng, _KUSTO_VALS)}" | count'
    if shape == 1:
        return f"{t} | where {c} > ago({_pick(rng, _KUSTO_DURS)}) | take {_pick(rng, _KUSTO_NS)}"
    if shape == 2:
        return f"{t} | summarize count() by {c}"
    if shape == 3:
        cl, db = _pick(rng, _KUSTO_CLUSTERS), _pick(rng, _KUSTO_DBS)
        return f"cluster('{cl}').database('{db}').{t} | sort by {c} desc"
    return f"let result = {t} | where {c} > {_pick(rng, _KUSTO_NS)}"


def _gen_powershell(rng) -> str:
    shape = rng.integers(5)
    if shape == 0:
        return f'{_pick(rng, _PS_VARS)} = "<your {_pick(rng, _PS_THINGS)} id/name>"'
    if shape == 1:
        return (
            f"Test-{_pick(rng, _PS_TEST_NOUNS)}Status "
            f"-{_pick(rng, _PS_PARAMS)} {_pick(rng, _PS_VALUES)}"
        )
    if shape == 2:
        p1, p2 = rng.choice(len(_PS_PARAMS), size=2, replace=False)
        return (
            f"Set-{_pick(rng, _PS_SET_NOUNS)} -{_PS_PARAMS[p1]} "
            f"{_pick(rng, _PS_VALUES)} -{_PS_PARAMS[p2]} {_pick(rng, _PS_VALUES)}"
        )
    if shape == 3:
        a, b = rng.choice(len(_PS_VARS), size=2, replace=False)
        return f"{_PS_VARS[a]} | Format-List {_PS_VARS[b]}"
    return f"{_pick(rng, _PS_VARS)} = Get-{_pick(rng, _PS_GET_NOUNS)} {_pick(rng, _PS_VALUES)}"


def _gen_torus(rng) -> str:
    return (
        f"{_pick(rng, _TORUS_VARS)} = {_pick(rng, _TORUS_CMDS)} {_pick(rng, _TORUS_REFS)}"
    )


def _gen_merlin(rng) -> str:
    cmd = _pick(rng, _MERLIN_CMDS)
    if rng.integers(4) == 0:
        a, b = rng.choice(len(_MERLIN_ARGS), size=2, replace=False)
        return f"{cmd} {_MERLIN_ARGS[a]} {_MERLIN_ARGS[b]}"
    return f"{cmd} {_pick(rng, _MERLIN_ARGS)}"


def _gen_nl(rng) -> str:
    shape = rng.integers(7)
    if shape == 0:
        return f"# {_pick(rng, _NL_TITLES)}"
    if shape == 1:
        return f"## {_pick(rng, _NL_TITLES)} steps"
    if shape == 2:
        return f"Check {_pick(rng, _NL_THINGS)} before continuing."
    if shape == 3:
        return f"Contact the {_pick(rng, _NL_TEAMS)} if the issue persists."
    if shape == 4:
        return f"If {_pick(rng, _NL_CONDS)}, {_pick(rng, _NL_ACTIONS)}."
    if shape == 5:
        return f"This section describes {_pick(rng, _NL_THINGS)}."
    return f"Make sure {_pick(rng, _NL_THINGS)} is healthy."


def _pick(rng, pool):
    return pool[rng.integers(len(pool))]


# Classes whose statements are single picks from a pool.
_POOLS = {"adf": _ADF_URLS, "jarvis": _JARVIS_URLS}

_GENERATORS = {
    "kusto": _gen_kusto,
    "powershell": _gen_powershell,
    "torus": _gen_torus,
    "merlin": _gen_merlin,
    "adf": lambda rng: _pick(rng, _ADF_URLS),
    "jarvis": lambda rng: _pick(rng, _JARVIS_URLS),
    "natural_language": _gen_nl,
}


def generate_corpus(seed: int = 7, per_class: int = 40) -> list[tuple[str, str]]:
    """Deterministic (text, label) list; duplicates allowed for URL classes.

    Each class starts from its fixed exemplars and draws up to
    `per_class * 60` candidates, keeping the new ones, then fills up with
    plain draws if it is still short.
    """
    rng = np.random.default_rng(seed)
    rows: list[tuple[str, str]] = []
    for label in CLASSES:
        seen: list[str] = list(FIXED.get(label, ()))
        pool = _POOLS.get(label)
        if pool is not None and len(seen) + len(set(pool) - set(seen)) < per_class:
            # The pool cannot fill the class, so every attempt is drawn; one
            # vector draw gives the same stream as that many scalar ones.
            picks = rng.integers(len(pool), size=per_class * 60).tolist()
            seen += [text for text in dict.fromkeys(pool[i] for i in picks) if text not in seen]
            fill = rng.integers(len(pool), size=per_class - len(seen)).tolist()
            seen += [pool[i] for i in fill]
        else:
            gen = _GENERATORS[label]
            attempts = 0
            while len(seen) < per_class and attempts < per_class * 60:
                candidate = gen(rng)
                attempts += 1
                if candidate not in seen:
                    seen.append(candidate)
            while len(seen) < per_class:
                seen.append(gen(rng))
        rows.extend((text, label) for text in seen[:per_class])
    return rows

