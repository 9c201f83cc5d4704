"""Correctness gate (standard library only).

Every operation's outputs are turned into tables (header plus rows of
strings, as the program writes them) and checked twice:

* on every seed, against the program's own documented invariants: exact CSV
  headers and row counts, finite values, every ``validate`` check ``pass``,
  regulation zeros below 1e-8, and oracle agreement below 1e-8 for N >= 16;
* on seed 0, against golden tables recorded from the program, with the
  tolerance 1e-12 relative to each column's largest magnitude, so values at
  the rounding floor of a column are compared at that column's scale.

A check returns a list of problems; an operation with any problem failed.
"""

import csv
import gzip
import io
import math
import os
import re

GOLDEN_RTOL = 1e-12
INVARIANT_TOL = 1e-8
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# rounding-level residuals: checked against INVARIANT_TOL only, never golden
NO_GOLDEN = {"regulation"}

VALIDATE_CHECKS = (
    "collocation_HB_eq_CT", "dissipation_structure", "dissipativity", "plant_margin",
    "transfer_oracle", "s_matrix_identity", "sylvester_residual", "care_residual",
    "closed_loop_margin", "regulation_zeros",
)
TRACE_HEADER = ["t", "y1", "y2", "e1", "e2", "u1", "u2", "energy"]
SWEEP_HEADER = ["param", "value", "margin", "l2sq", "stable"]
_CHECK_LINE = re.compile(r"^\[\s*(\w+)\]\s+(\S+)\s*(.*)$")
_FLOAT = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")

# output files per CLI command: table name -> file name
CLI_FILES = {
    "validate": {},
    "simulate": {"trace": "trace.csv", "summary": "summary.csv", "manifest": "manifest.txt"},
    "analyze": {"transfer_errors": "transfer_errors.csv", "resolvent_scan": "resolvent_scan.csv"},
    "sweep": {"sweep": "sweep_c1.csv"},
}


# --- tables -------------------------------------------------------------------

def read_table(path):
    """(header, rows) of a CSV file (gzip if the name ends in .gz); .txt is one cell."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="ascii", newline="") as fh:
        text = fh.read()
    if path.endswith(".txt"):
        return ["text"], [[text]]
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def write_table(path, header, rows) -> None:
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt", encoding="ascii", newline="") as fh:
        if path.endswith(".txt"):
            fh.write(rows[0][0])
            return
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def validate_table(stdout: str):
    """The ``validate`` report as (name, status, last number in the detail)."""
    rows = []
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            numbers = _FLOAT.findall(m.group(3))
            rows.append([m.group(2), m.group(1), numbers[-1] if numbers else "nan"])
    return ["name", "status", "value"], rows


def cli_tables(command: str, out_dir: str, stdout: str):
    """Tables of one CLI command's outputs, plus problems for missing files."""
    tables, problems = {}, []
    if command == "validate":
        tables["checks"] = validate_table(stdout)
    for name, fname in CLI_FILES[command].items():
        path = os.path.join(out_dir, fname)
        if not os.path.isfile(path):
            problems.append(f"{fname}: not written")
            continue
        tables[name] = read_table(path)
    return tables, problems


def floats(cells):
    """Floats of the cells, or None if any cell is not a number."""
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


# --- invariants ---------------------------------------------------------------

class _Checker:
    def __init__(self, tables):
        self.tables = tables
        self.problems = []

    def fail(self, msg):
        self.problems.append(msg)

    def rows(self, name, header, nrows):
        """Rows of a table with the exact header and row count, else None."""
        if name not in self.tables:
            self.fail(f"{name}: missing")
            return None
        got_header, rows = self.tables[name]
        if list(got_header) != list(header):
            self.fail(f"{name}: header {got_header} != {header}")
            return None
        if len(rows) != nrows:
            self.fail(f"{name}: {len(rows)} rows, expected {nrows}")
            return None
        if any(len(r) != len(header) for r in rows):
            self.fail(f"{name}: ragged rows")
            return None
        return rows

    def column(self, name, rows, j, finite=True):
        vals = floats([r[j] for r in rows])
        if vals is None:
            self.fail(f"{name}: non-numeric entries in column {j}")
            return None
        if finite and not all(math.isfinite(v) for v in vals):
            self.fail(f"{name}: non-finite entries in column {j}")
            return None
        return vals

    def all_finite(self, name, rows):
        for j in range(len(rows[0]) if rows else 0):
            if self.column(name, rows, j) is None:
                return

    def below(self, what, values, tol=INVARIANT_TOL):
        worst = max(values, default=0.0)
        if not worst < tol:
            self.fail(f"{what}: {worst:.3e} not below {tol:g}")

    def sweep(self, name, rows, value_col):
        stable = self.column(name, rows, value_col + 3)
        margin = self.column(name, rows, value_col + 1, finite=False)
        l2sq = self.column(name, rows, value_col + 2, finite=False)
        if None in (stable, margin, l2sq) or self.column(name, rows, value_col) is None:
            return
        for s, m, e in zip(stable, margin, l2sq):
            if s == 1.0 and not (math.isfinite(m) and m > 0.0 and math.isfinite(e)):
                self.fail(f"{name}: stable point with margin {m!r}, l2sq {e!r}")
            elif s == 0.0 and not (math.isnan(m) and math.isnan(e)):
                self.fail(f"{name}: unstable point carries numbers")
            elif s not in (0.0, 1.0):
                self.fail(f"{name}: stable flag {s!r}")


def check_invariants(unit: str, tables, inputs) -> list:
    """Problems with the documented invariants of one operation's outputs.

    ``unit`` is a CLI command name or an in-process workload name.
    """
    c = _Checker(tables)
    if unit == "validate":
        rows = c.rows("checks", ["name", "status", "value"], len(VALIDATE_CHECKS))
        if rows is not None:
            if [r[0] for r in rows] != list(VALIDATE_CHECKS):
                c.fail(f"checks: names {[r[0] for r in rows]}")
            c.problems += [f"check {r[0]}: {r[1]}" for r in rows if r[1] != "pass"]
            zeros = floats([r[2] for r in rows if r[0] == "regulation_zeros"])
            c.below("regulation zeros", zeros or [math.inf])
    elif unit == "simulate":
        rows = c.rows("trace", TRACE_HEADER, inputs["steps"] + 1)
        if rows is not None:
            c.all_finite("trace", rows)
        rows = c.rows("summary", ["margin", "l2sq", "decay_rate"], 1)
        if rows is not None:
            c.all_finite("summary", rows)
            if float(rows[0][0]) <= 0.0:
                c.fail("summary: margin not positive")
        if "manifest" in tables and not tables["manifest"][1][0][0].strip():
            c.fail("manifest: empty")
    elif unit == "analyze":
        _transfer(c, "transfer_errors", ("6", "8", "12", "16"))
        rows = c.rows("resolvent_scan", ["omega", "resolvent_norm"], 401)
        if rows is not None:
            norms = c.column("resolvent_scan", rows, 1)
            if norms is not None and min(norms) <= 0.0:
                c.fail("resolvent_scan: nonpositive norm")
            c.column("resolvent_scan", rows, 0)
    elif unit == "sweep":
        rows = c.rows("sweep", SWEEP_HEADER, inputs["sweep_points"])
        if rows is not None:
            if any(r[0] != "c1" for r in rows):
                c.fail("sweep: parameter column is not c1")
            c.sweep("sweep", rows, 1)
    elif unit == "observer-sweep-n20":
        rows = c.rows("sweep", SWEEP_HEADER[1:], inputs["sweep_points"])
        if rows is not None:
            c.sweep("sweep", rows, 0)
    elif unit == "frequency-scan-n40":
        rows = c.rows("resolvent", ["omega", "resolvent_norm"], len(inputs["scan_omegas"]))
        if rows is not None:
            norms = c.column("resolvent", rows, 1)
            if norms is not None and min(norms) <= 0.0:
                c.fail("resolvent: nonpositive norm")
        _transfer(c, "transfer", tuple(str(n) for n in inputs["transfer_ns"]))
        rows = c.rows("regulation", ["omega", "residual"], 7)
        if rows is not None:
            res = c.column("regulation", rows, 1)
            if res is not None:
                c.below("regulation zeros", res)
        rows = c.rows("loop", ["margin"], 1)
        if rows is not None and not float(rows[0][0]) > 0.0:
            c.fail("loop: closed loop not exponentially stable")
    else:
        raise ValueError(f"no invariants for {unit!r}")
    return c.problems


def _transfer(c, name, ns):
    rows = c.rows(name, ["N", "max_rel_error"], len(ns))
    if rows is None:
        return
    if tuple(r[0] for r in rows) != ns:
        c.fail(f"{name}: N column {[r[0] for r in rows]}")
    errs = c.column(name, rows, 1)
    if errs is not None:
        c.below(f"{name}: oracle agreement at N >= 16",
                [e for r, e in zip(rows, errs) if int(r[0]) >= 16])


# --- golden comparison --------------------------------------------------------

def golden_path(unit: str, name: str) -> str:
    base = os.path.join(GOLDEN_DIR, unit, name)
    if name == "manifest":
        return base + ".txt"
    return base + (".csv.gz" if name == "trace" else ".csv")


def load_golden(unit: str) -> dict:
    folder = os.path.join(GOLDEN_DIR, unit)
    names = sorted(os.listdir(folder)) if os.path.isdir(folder) else []
    if not names:
        raise FileNotFoundError(f"no golden tables under {folder}")
    return {n.split(".")[0]: read_table(os.path.join(folder, n)) for n in names}


def record_golden(unit: str, tables) -> None:
    os.makedirs(os.path.join(GOLDEN_DIR, unit), exist_ok=True)
    for name, (header, rows) in tables.items():
        if name not in NO_GOLDEN:
            write_table(golden_path(unit, name), header, rows)


def compare_golden(tables, golden) -> list:
    """Problems where a table deviates from its golden beyond GOLDEN_RTOL."""
    problems = []
    for name, (g_header, g_rows) in golden.items():
        if name not in tables:
            problems.append(f"{name}: missing (golden exists)")
            continue
        header, rows = tables[name]
        if list(header) != list(g_header) or len(rows) != len(g_rows):
            problems.append(f"{name}: shape differs from golden")
            continue
        for j, col in enumerate(g_header):
            problem = _compare_column([r[j] for r in rows], [r[j] for r in g_rows])
            if problem:
                problems.append(f"{name}.{col}: {problem}")
    return problems


def _compare_column(cells, g_cells):
    golden = floats(g_cells)
    if golden is None:
        bad = sum(a != g for a, g in zip(cells, g_cells))
        return f"{bad} entries differ" if bad else None
    actual = floats(cells)
    if actual is None:
        return "non-numeric entries"
    scale = max((abs(g) for g in golden if math.isfinite(g)), default=0.0)
    tol = GOLDEN_RTOL * scale
    worst, where = 0.0, None
    for i, (a, g) in enumerate(zip(actual, golden)):
        if math.isnan(a) or math.isnan(g) or math.isinf(a) or math.isinf(g):
            if not (a == g or (math.isnan(a) and math.isnan(g))):
                return f"row {i}: {a!r} vs golden {g!r}"
            continue
        if abs(a - g) > worst:
            worst, where = abs(a - g), i
    if worst > tol:
        return f"max |diff| {worst:.3e} at row {where} exceeds {GOLDEN_RTOL:g} x column scale {scale:.3e}"
    return None
