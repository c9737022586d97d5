#!/usr/bin/env python3
"""Turn a directory of .gcov files into an HTML + text coverage report.

Driven by scripts/coverage.sh; standard library only (no gcovr/lcov).

Reads every ``*.gcov`` file under ``--gcov-dir``, keeps the ones whose
``Source:`` header points into the repository's ``src/`` tree, and
aggregates executable/executed line counts per file and per top-level
source directory. Writes ``index.html`` (per-file drill-down with bars)
and ``summary.txt`` into ``--out-dir``, prints the summary, then
enforces the floors below.

Floors: line coverage of src/coding, src/sim, src/simd, src/alu, src/lut
and src/obs must not drop below the values in FLOORS. Calibrated 2026-08
from a clean tier-1 run (coding 97.1%, sim 90.6%), 2026-10 for src/simd
(94.8%, 6211/6550 lines: the wide kernels are the only lane-sliced
implementation, checked against the scalar engine), and later in 2026-10
for src/alu (94.9%, 1010/1064), src/lut (94.5%, 432/457) and src/obs
(91.0%, 800/879): the scalar ALU stack every backend is checked against,
and the one accounting and timing substrate. The floors sit a few points
under the measured values so routine drift doesn't flap the gate, while
a meaningfully untested addition to any of these trees trips it.

Those calibrations counted every per-instantiation line gcov prints; a
line now counts once (parse_gcov). On one tier-1 run that moved src/alu
93.9% -> 97.0%, src/lut 89.3% -> 98.1% (under its floor before: the
LutBlock template counted once per instantiation), src/obs 92.2% ->
94.0%, src/sim 87.2% -> 90.9%, src/coding 97.9% -> 98.8% and src/simd
99.0% -> 98.3% (7312 -> 801 lines).
"""

import argparse
import html
import sys
from pathlib import Path

# directory prefix -> minimum line coverage percent (tier-1 run).
FLOORS = {
    "src/alu": 90.0,
    "src/coding": 90.0,
    "src/lut": 90.0,
    "src/obs": 85.0,
    "src/sim": 85.0,
    "src/simd": 90.0,
}


def parse_gcov(path):
    """Return (source_path, executable_lines, executed_lines) or None.

    gcov prints each line of a template or inline function once merged
    (its count summed over every instantiation), then again in one block
    per instantiation. Only the first, merged, line of each number counts,
    so a header is weighted once and a line that ran reads as run.
    """
    source = None
    executable = 0
    executed = 0
    seen = set()
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            parts = line.split(":", 2)
            if len(parts) < 3:
                continue
            count, lineno = parts[0].strip(), parts[1].strip()
            if lineno == "0":
                if parts[2].startswith("Source:"):
                    source = parts[2][len("Source:"):].strip()
                continue
            if lineno in seen:
                continue  # a per-instantiation repeat
            seen.add(lineno)
            if count == "-":
                continue  # not executable
            executable += 1
            # "#####" = never executed, "=====" = unexecuted exceptional
            if not count.startswith("#") and not count.startswith("="):
                executed += 1
    if source is None:
        return None
    return source, executable, executed


def normalize(source):
    """Map a gcov Source: path to a repo-relative src/... path, or None."""
    src = source.replace("\\", "/")
    if "/src/" in src:
        src = "src/" + src.split("/src/", 1)[1]
    if not src.startswith("src/"):
        return None
    return src


def pct(executed, executable):
    return 100.0 * executed / executable if executable else 100.0


def bar(p):
    color = "#2e7d32" if p >= 90 else "#f9a825" if p >= 70 else "#c62828"
    return (
        f'<div style="background:#eee;width:120px;display:inline-block">'
        f'<div style="background:{color};width:{p:.0f}%;height:0.8em">'
        f"</div></div>"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gcov-dir", required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    files = {}  # repo-relative path -> [executable, executed]
    for gcov_file in sorted(Path(args.gcov_dir).glob("*.gcov")):
        parsed = parse_gcov(gcov_file)
        if parsed is None:
            continue
        source, executable, executed = parsed
        rel = normalize(source)
        if rel is None:
            continue
        # The same source can be compiled into several objects (e.g. a
        # header, or a library built twice); keep the best-covered view.
        entry = files.setdefault(rel, [0, 0])
        if executable and (
            entry[0] == 0 or pct(executed, executable) > pct(entry[1], entry[0])
        ):
            files[rel] = [executable, executed]

    if not files:
        print("coverage_report: no src/ .gcov data found", file=sys.stderr)
        return 2

    dirs = {}  # "src/coding" -> [executable, executed]
    for rel, (executable, executed) in files.items():
        top = "/".join(rel.split("/")[:2])
        entry = dirs.setdefault(top, [0, 0])
        entry[0] += executable
        entry[1] += executed

    total_exec = sum(v[0] for v in files.values())
    total_hit = sum(v[1] for v in files.values())

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = ["line coverage (tier-1 run)", ""]
    for top in sorted(dirs):
        executable, executed = dirs[top]
        floor = FLOORS.get(top)
        mark = f"  floor {floor:.0f}%" if floor is not None else ""
        lines.append(
            f"  {top:<16} {pct(executed, executable):6.2f}%  "
            f"({executed}/{executable}){mark}"
        )
    lines.append("")
    lines.append(
        f"  {'total':<16} {pct(total_hit, total_exec):6.2f}%  "
        f"({total_hit}/{total_exec})"
    )
    summary = "\n".join(lines)
    (out_dir / "summary.txt").write_text(summary + "\n")
    print(summary)

    rows = []
    for top in sorted(dirs):
        executable, executed = dirs[top]
        p = pct(executed, executable)
        rows.append(
            f"<tr><th colspan=2 align=left>{html.escape(top)}</th>"
            f"<td>{p:.2f}%</td><td>{bar(p)}</td></tr>"
        )
        for rel in sorted(files):
            if not rel.startswith(top + "/"):
                continue
            fe, fh_ = files[rel]
            fp = pct(fh_, fe)
            rows.append(
                f"<tr><td></td><td>{html.escape(rel)}</td>"
                f"<td>{fp:.2f}% ({fh_}/{fe})</td><td>{bar(fp)}</td></tr>"
            )
    (out_dir / "index.html").write_text(
        "<!doctype html><meta charset=utf-8>"
        "<title>nanobox coverage</title>"
        "<style>body{font-family:sans-serif}td,th{padding:2px 8px}</style>"
        f"<h1>Line coverage — tier-1 suite</h1>"
        f"<p>total: {pct(total_hit, total_exec):.2f}% "
        f"({total_hit}/{total_exec} lines)</p>"
        f"<table>{''.join(rows)}</table>\n"
    )
    print(f"\nHTML report: {out_dir / 'index.html'}")

    failed = False
    for top, floor in sorted(FLOORS.items()):
        executable, executed = dirs.get(top, [0, 0])
        p = pct(executed, executable)
        if not executable or p < floor:
            print(
                f"coverage_report: FAIL {top} at {p:.2f}% "
                f"(floor {floor:.0f}%)",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
