"""Replay the resource ledger of an audit log from its records alone.

Each line of ``audit.jsonl`` names an operation and its params and carries
the summaries of its inputs and output, each with exactly the keys SUMMARY.
replay checks those key sets and recomputes every output field from
the record's inputs and params, with each primitive's own charge and eps rule
restated here from the blockcalc docs rather than imported, so a log is
checked against the rule as documented, not against the code that wrote it.

The ledger rule: depth, queries and ancillas are the operation's own charge
plus the sum over its operand positions.  No summary carries
the dimension N: it is read from the params of diag_encode and
projector_encode and carried along the output ids.  amplify's eps needs the
input's norm, which no summary carries, so only its bound
gamma * eps_in + eps_target * (1 - delta) is checked, together with its
repetition count m = ceil((2 * gamma / delta) * ln(4 * gamma / eps_target)).
"""

import json
import math

SUMMARY = {"alpha", "ancillas", "depth_units", "eps", "id", "queries"}


def _own(op: str, params: dict, ins: list, log_n: int):
    """(depth, queries, ancillas, alpha, eps) that op adds or sets; eps None for amplify."""
    if op == "diag_encode":
        return log_n, 0, log_n + 3, params["alpha"], 0.0
    if op == "projector_encode":
        return 1, 0, log_n, 1.0, 0.0
    a = ins[0]
    if op == "entry_project":
        return log_n, 2, log_n + 3, a["alpha"], a["eps"]
    if op == "product":
        b = ins[1]
        return 0, 2, 0, a["alpha"] * b["alpha"], a["alpha"] * b["eps"] + b["alpha"] * a["eps"]
    if op == "lcu":
        m = params["m"]
        return 0, m, math.ceil(math.log2(m)), a["alpha"], sum(e["eps"] for e in ins) / m
    if op == "scale_down":
        return 1, 0, 1, a["alpha"], a["eps"] / params["p"]
    if op == "amplify":
        return params["m"], params["m"], 1, a["alpha"], None
    if op == "qsvt_transform":
        d = params["degree"]
        return d, d, 2, 1.0, 4.0 * d * math.sqrt(a["eps"] / a["alpha"])
    raise ValueError(f"unknown operation {op!r}")


def replay(jsonl: str):
    """The first (seq, field, logged, replayed) at which a record's output differs, else None.

    A field is an output summary field, "m" for amplify's repetition count,
    or "keys" for a summary whose key set is not SUMMARY.
    """
    dims = {}
    for line in jsonl.splitlines():
        rec = json.loads(line)
        op, params, ins, out = rec["op"], rec["params"], rec["in"], rec["out"]
        for summary in (*ins, out):
            if summary.keys() != SUMMARY:
                return rec["seq"], "keys", sorted(summary), sorted(SUMMARY)
        dim = params["dim"] if "dim" in params else dims[ins[0]["id"]]
        depth, queries, ancillas, alpha, eps = _own(op, params, ins, int(math.log2(dim)))
        ancillas += sum(e["ancillas"] for e in ins)
        want = {
            "alpha": alpha,
            "ancillas": ancillas,
            "depth_units": depth + sum(e["depth_units"] for e in ins),
            "queries": queries + sum(e["queries"] for e in ins),
        }
        if eps is None:
            gamma, delta, target = params["gamma"], params["delta"], params["eps_target"]
            m = math.ceil((2.0 * gamma / delta) * math.log(4.0 * gamma / target))
            if params["m"] != m:
                return rec["seq"], "m", params["m"], m
            bound = gamma * ins[0]["eps"] + target * (1.0 - delta)
            if not out["eps"] <= bound:
                return rec["seq"], "eps", out["eps"], bound
        else:
            want["eps"] = eps
        for field, value in sorted(want.items()):
            if out[field] != value:
                return rec["seq"], field, out[field], value
        dims[out["id"]] = dim
    return None
