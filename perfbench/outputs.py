"""Correctness of the `figures` CLI's outputs, point by point.

A point is one (figure, machine, procs) cell of a sweep. The CLI writes
each point in three places: a cell of its stdout table, a row of the
`--csv` file, and (with `--telemetry`) a run of JSONL lines. `Outputs`
holds all three, split by point, so two sets of outputs can be compared
point by point: against the committed reference for the default seed, and
between the repetitions of one run for any seed.
"""

import hashlib
import json
import re
from pathlib import Path

DEFAULT_SEED = 1995

_HEADER = re.compile(r"^(\S+): .+ on \S+ — .+$")
_COLUMNS = re.compile(r"^\s+procs((?:\s+\S+)+)\s*$")
_ROW = re.compile(r"^\s+(\d+)((?:\s+\S+)+)\s*$")


def parse_table(text):
    """Splits the CLI's stdout into table cells and the frame lines around
    them. Returns ({(figure, machine, procs): cell}, {figure: [frame
    lines]}); lines outside any figure are filed under the figure ''."""
    cells, frames = {}, {"": []}
    figure, machines = "", []
    for line in text.splitlines():
        m = _HEADER.match(line)
        if m:
            figure, machines = m.group(1), []
            frames.setdefault(figure, [])
        elif line.startswith("wrote "):
            figure, machines = "", []
        cols = _COLUMNS.match(line)
        row = _ROW.match(line) if machines else None
        if cols and figure:
            machines = cols.group(1).split()
        if row and len(row.group(2).split()) == len(machines):
            procs = row.group(1)
            for machine, cell in zip(machines, row.group(2).split()):
                cells[(figure, machine, procs)] = cell
        else:
            frames[figure].append(line)
    return cells, frames


def parse_csv(text):
    """{(figure, machine, procs): row} of a `--csv` file, and its header."""
    lines = text.splitlines()
    rows = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) >= 8:
            rows[(parts[0], parts[5], parts[4])] = line
    return rows, (lines[0] if lines else "")


def csv_failed(row):
    """True when a CSV row records a failed point."""
    parts = row.split(",")
    return parts[6] == "FAILED" or ",".join(parts[7:]) != ""


def telemetry_points(text):
    """{(figure, machine, procs): (lines, sha256, outcome)} of a telemetry
    JSONL file; `outcome` comes from the point's summary line."""
    grouped = {}
    for n, line in enumerate(text.splitlines()):
        try:
            rec = json.loads(line)
            key = (rec["figure"], rec["machine"], str(rec["procs"]))
        except (ValueError, KeyError, TypeError):
            # Filed on its own with no summary, so it counts as failed.
            rec, key = {}, ("<unparsable>", "", str(n))
        entry = grouped.setdefault(key, {"lines": [], "outcome": None})
        entry["lines"].append(line)
        if rec.get("kind") == "summary":
            entry["outcome"] = rec.get("outcome")
    return {
        key: (len(e["lines"]), hashlib.sha256("\n".join(e["lines"]).encode()).hexdigest(), e["outcome"])
        for key, e in grouped.items()
    }


class Outputs:
    """One pass's outputs, split by point. Any part may be absent."""

    def __init__(self, stdout=None, csv=None, telemetry=None, exit_code=0):
        self.cells, self.frames = parse_table(stdout) if stdout is not None else (None, None)
        self.rows, self.csv_header = parse_csv(csv) if csv is not None else (None, None)
        self.telemetry = telemetry_points(telemetry) if telemetry is not None else None
        self.exit_code = exit_code

    @classmethod
    def read(cls, directory, stdout="stdout.txt", csv="values.csv", telemetry="telemetry.jsonl", exit_code=0):
        """Reads whichever of the named files exist in `directory`."""
        d = Path(directory)

        def text(name):
            # A part that was asked for but not written reads as empty,
            # so every point it should hold counts as missing.
            if name is None:
                return None
            return (d / name).read_text() if (d / name).is_file() else ""

        return cls(text(stdout), text(csv), text(telemetry), exit_code)

    def keys(self):
        """Every point any part of these outputs names."""
        keys = set()
        for part in (self.cells, self.rows, self.telemetry):
            keys |= set(part or ())
        return keys


def own_failures(out):
    """Points these outputs themselves report as failed: a FAILED cell, a
    CSV row with a failure reason (a failed verifier lands here), or a
    telemetry summary whose outcome is not ok."""
    failed = set()
    failed |= {k for k, cell in (out.cells or {}).items() if cell == "FAILED"}
    failed |= {k for k, row in (out.rows or {}).items() if csv_failed(row)}
    failed |= {k for k, (_, _, outcome) in (out.telemetry or {}).items() if outcome != "ok"}
    return failed


def _differs(mine, ref):
    """Points whose entries differ between two {point: entry} maps,
    including points present in only one of them."""
    return {k for k in set(mine) | set(ref) if mine.get(k) != ref.get(k)}


def failed_points(out, ref=None, expected_points=None):
    """The set of failed points of one pass.

    A point fails when the pass reports it failed, when it is missing
    (fewer points than `expected_points` leaves the shortfall as
    placeholder keys), or, given a reference, when any part the reference
    holds differs from it. A difference in a figure's frame lines (title,
    column header, failure note) fails every point of that figure.
    """
    failed = own_failures(out)
    if ref is not None:
        # Only the parts this pass wrote are compared.
        if ref.cells is not None and out.cells is not None:
            mine = out.cells
            failed |= _differs(mine, ref.cells)
            for figure, lines in ref.frames.items():
                if out.frames.get(figure) != lines:
                    failed |= {k for k in set(ref.cells) | set(mine) if k[0] == figure}
        if ref.rows is not None and out.rows is not None:
            mine = out.rows
            failed |= _differs(mine, ref.rows)
            if out.csv_header != ref.csv_header:
                failed |= set(ref.rows) | set(mine)
        if ref.telemetry is not None and out.telemetry is not None:
            mine = {k: v[:2] for k, v in out.telemetry.items()}
            failed |= _differs(mine, {k: v[:2] for k, v in ref.telemetry.items()})
    if expected_points is not None:
        missing = expected_points - len(out.keys() | failed)
        failed |= {("<missing>", "", str(i)) for i in range(max(missing, 0))}
    if out.exit_code not in (0, 3):
        # Exit 3 means "points failed", which the parts above already
        # show; anything else is a failure of the whole pass.
        failed |= out.keys()
        short = max(expected_points or 1, len(failed)) - len(failed)
        failed |= {("<exit>", "", str(i)) for i in range(short)}
    return failed


def write_reference(out_dir, stdout, csv, telemetry):
    """Stores a reference: stdout and CSV verbatim, telemetry as one
    line per point with its line count and SHA-256 (the raw JSONL runs to
    hundreds of kilobytes)."""
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    (d / "stdout.txt").write_text(stdout)
    (d / "values.csv").write_text(csv)
    if telemetry is not None:
        digest = telemetry_points(telemetry)
        lines = [f"{f},{m},{p},{n},{sha}" for (f, m, p), (n, sha, _) in sorted(digest.items())]
        (d / "telemetry.sha256").write_text("\n".join(lines) + "\n")


def read_reference(ref_dir):
    """The committed reference of a workload, or None if there is none."""
    d = Path(ref_dir)
    if not (d / "stdout.txt").is_file():
        return None
    ref = Outputs((d / "stdout.txt").read_text(), (d / "values.csv").read_text())
    tel = d / "telemetry.sha256"
    if tel.is_file():
        ref.telemetry = {}
        for line in tel.read_text().splitlines():
            f, m, p, n, sha = line.split(",")
            ref.telemetry[(f, m, p)] = (int(n), sha, "ok")
    return ref
