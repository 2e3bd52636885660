"""The output files as one string each: the form the package's block writers
must reproduce byte for byte."""

import json

from coopsgd.cli import TRACE_CSV_COLUMNS


def trace_csv_text(trace, wall_clock) -> str:
    """A trace CSV with every row formatted at once."""
    loss, grad_sq, net_err = trace.metrics[:3].tolist()
    clock = wall_clock.tolist()
    lines = [",".join(TRACE_CSV_COLUMNS)]
    lines.extend(f"{k},{loss[k]!r},{grad_sq[k]!r},{net_err[k]!r},{clock[k]!r}"
                 for k in range(trace.rows))
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    """A JSON output file encoded in one call."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
