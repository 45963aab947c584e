#!/usr/bin/env python3
"""Show that the benchmark's output checks catch wrong output.

    python3 perfbench/selftest.py

Runs the checks on real program output, then on deliberately perturbed
copies: a Fig. 9 table with a wrong Gmean, one with opt below BF, a
Fig. 4 row whose WS is not SD-1 + SD-2, a warm Fig. 10 table that
differs from its preparation run, and a coordinator store with one
flipped byte. A fill whose workers exit at once must count each of them
as a failed operation rather than stop the benchmark. Every clean case
must pass and every perturbed one must fail; exits 1 otherwise. Takes about half a minute (it builds and
prepares first, like run.py).
"""
import shutil
import sys

sys.dont_write_bytecode = True
import checks  # noqa: E402
import run  # noqa: E402

RESULTS = []


def expect(name, problems, should_fail):
    ok = bool(problems) == should_fail
    RESULTS.append(ok)
    verdict = "caught" if problems else "passed"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))


def replace_cell(text, row_name, col, value):
    """@p text with cell @p col of row @p row_name set to @p value."""
    out = []
    for line in text.splitlines():
        cells = line.split("|")
        if line.startswith("|") and cells[1].strip() == row_name:
            width = len(cells[col + 1])
            cells[col + 1] = f" {value}".ljust(width)
            line = "|".join(cells)
        out.append(line)
    return "\n".join(out) + "\n"


def main():
    run.build()
    prep = run.online_prep()
    work = run.BUILD / "runs" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        fig09 = (prep / "fig09_ws_comparison.out").read_text()
        expect("fig09 as printed", checks.check_comparison(fig09, "fig09"),
               False)
        _, rows = checks.parse_tables(fig09)[0]
        gmean = float(rows[-1][3])
        expect("fig09 with a wrong Gmean", checks.check_comparison(
            replace_cell(fig09, "Gmean", 3, f"{gmean + 0.01:.3f}"),
            "fig09"), True)
        opt = float(rows[0][6])
        expect("fig09 with opt below BF", checks.check_comparison(
            replace_cell(fig09, rows[0][0], 5, f"{opt + 0.05:.3f}"),
            "fig09"), True)

        # Fig. 4 runs in well under a second on the prepared store,
        # which holds every representative pair's table.
        d = run.fresh_dir(work, "fig04")
        shutil.copyfile(prep / run.STORE, d / run.STORE)
        ops = run.Ops()
        fig04 = run.run_figure(run.Round(ops), "fig04_ws_eb_gap", d).text()
        expect("fig04 as printed", checks.check_fig04(fig04), False)
        first = checks.parse_tables(fig04)[0][1][0]
        expect("fig04 with WS != SD-1 + SD-2", checks.check_fig04(
            replace_cell(fig04, first[0], 3,
                         f"{float(first[3]) + 0.01:.3f}")), True)

        fig10 = (prep / "fig10_fi_comparison.out").read_text()
        _, rows10 = checks.parse_tables(fig10)[0]
        changed = replace_cell(fig10, rows10[1][0], 3, "0.999")
        same = checks.tables_only(changed) == checks.tables_only(fig10)
        expect("fig10 differing from its preparation run",
               [] if same else ["tables differ"], True)

        a, b = run.fill_pairs(1)[0]
        ops = run.Ops()
        _, _, store = run.fill_one(work, ops, run.Round(ops), a, b)
        run.check_fill(work, ops, a, b, store)
        expect(f"coordinator store of {a}_{b}", ops.problems, False)
        data = bytearray(store.read_bytes())
        data[len(data) // 2] ^= 0x01
        store.write_bytes(bytes(data))
        ops = run.Ops()
        run.check_fill(work, ops, a, b, store)
        expect(f"coordinator store of {a}_{b} with a flipped byte",
               ops.problems, True)

        # An unknown app makes every worker exit before the first lease.
        ops = run.Ops()
        run.fill_one(work, ops, run.Round(ops), "NOSUCHAPP", a)
        exited = [p for p in ops.problems if "ebm_sweep_worker exited" in p]
        expect("fill whose workers exit at once",
               exited if len(exited) == run.FILL_WORKERS else [], True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("all checks behave" if all(RESULTS) else "SOME CHECKS MISBEHAVE")
    sys.exit(0 if all(RESULTS) else 1)


if __name__ == "__main__":
    main()
