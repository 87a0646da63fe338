"""Check the paper's robustness claims in a bench report.

    dune exec bench/main.exe -- --quick \
        --only table1,fig6,fig7,fig8,fig9,fig10,fig11 --json report.json
    python3 bench/check_claims.py report.json

No timing is compared. The checks:
  - in every cell of Figures 6-11, AMbER leaves no more queries
    unanswered than any baseline engine;
  - in Table 1, AMbER answers every query;
  - wherever two engines answered every query of a cell, they return the
    same total number of rows.
Prints each figure's smallest margin (and, for information only, AMbER's
slowest answer against the per-query budget) and exits 1 on any violation.
"""

import json
import sys

FIGURES = ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11"]


def check(report):
    failures = []
    amber = {e["engine"]: e for e in report["table1"]["engines"]}["amber"]
    if amber["unanswered"] != 0:
        failures.append(f"table1: amber left {amber['unanswered']} unanswered")
    cells = [("table1", report["table1"]["engines"])]
    budget = report["config"]["timeout"]
    for fig in FIGURES:
        margins, slowest = [], 0.0
        for point in report[fig]["points"]:
            name = f"{fig} size {point['size']}"
            engines = point["engines"]
            cells.append((name, engines))
            amber = next(e for e in engines if e["engine"] == "amber")
            fewest = min(e["unanswered"] for e in engines if e is not amber)
            margins.append(fewest - amber["unanswered"])
            slowest = max(slowest, amber["p99_s"])
            if amber["unanswered"] > fewest:
                failures.append(
                    f"{name}: amber left {amber['unanswered']} unanswered, "
                    f"a baseline only {fewest}"
                )
        print(
            f"{fig}: smallest margin (baseline - amber unanswered) {min(margins)}; "
            f"amber's slowest answer {slowest:.3f}s of {budget}s"
        )
    for name, engines in cells:
        complete = {e["engine"]: e["total_rows"] for e in engines if e["unanswered"] == 0}
        if len(set(complete.values())) > 1:
            failures.append(f"{name}: engines that answered everything disagree on rows {complete}")
    return failures


def main():
    with open(sys.argv[1]) as f:
        failures = check(json.load(f))
    for failure in failures:
        print("FAIL", failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
