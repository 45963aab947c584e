"""Output checks for the figure-suite benchmark.

Every check here is computed apart from the program: either from the
printed numbers themselves (sums, geometric means) or from properties
the paper's method must have (an exhaustive optimum is never below any
other entry of the table it maximises). Each function returns a list
of problems; an empty list means the output passed.
"""
import math
import re

SWEEP_STATUS = re.compile(
    r"sweep status: (\d+) combos \((\d+) from cache, (\d+) simulated, "
    r"(?:(\d+) from peers, )?(\d+) retried, (\d+) skipped\)")

# Lines that describe how a result was obtained (store, simulation,
# peers) rather than the result; they differ between a cold and a
# warm run of the same binary.
DIAGNOSTIC = re.compile(r"^(sweep status:|cache persist:|info:|warn:)")


def sweep_statuses(text):
    """Every `sweep status:` line as a dict of its counts."""
    out = []
    for m in SWEEP_STATUS.finditer(text):
        combos, cache, sim, peers, retried, skipped = m.groups()
        out.append({"combos": int(combos), "from_cache": int(cache),
                    "simulated": int(sim), "from_peers": int(peers or 0),
                    "retried": int(retried), "skipped": int(skipped)})
    return out


def check_sweep_statuses(text, where):
    """combos = from cache + simulated + from peers; nothing retried
    or skipped."""
    problems = []
    for s in sweep_statuses(text):
        if s["combos"] != s["from_cache"] + s["simulated"] + s["from_peers"]:
            problems.append(f"{where}: sweep status does not add up: {s}")
        if s["retried"] or s["skipped"]:
            problems.append(f"{where}: sweep retried or skipped rows: {s}")
    return problems


def tables_only(text):
    """The output without its diagnostic lines (the figure itself)."""
    return "\n".join(line for line in text.splitlines()
                     if not DIAGNOSTIC.match(line))


def parse_tables(text):
    """Markdown tables of a figure's stdout as (headers, rows) pairs;
    rows are lists of cell strings."""
    tables, block = [], []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            block.append([c.strip() for c in line.strip().strip("|").split("|")])
        elif block:
            if len(block) >= 2 and set(block[1][0]) <= set("-"):
                tables.append((block[0], block[2:]))
            block = []
    return tables


def half_ulp(cell):
    """Half a unit in the last printed digit of a number cell."""
    decimals = len(cell.split(".")[1]) if "." in cell else 0
    return 0.5 * 10.0 ** -decimals


def check_comparison(text, where):
    """Figs. 9, 10 and Sec. VI-C: per row, opt >= BF, PBS (Offline) and
    the ++bestTLP baseline (1.000); the Gmean row is the geometric mean
    of the rows above it, to print precision."""
    problems = []
    tables = parse_tables(text)
    if len(tables) != 1:
        return [f"{where}: expected one table, found {len(tables)}"]
    headers, rows = tables[0]
    try:
        opt = next(i for i, h in enumerate(headers) if h.startswith("opt"))
        bf = next(i for i, h in enumerate(headers) if h.startswith("BF-"))
        off = next(i for i, h in enumerate(headers) if h.endswith("(Offline)"))
    except StopIteration:
        return [f"{where}: unexpected headers {headers}"]
    if not rows or rows[-1][0] != "Gmean":
        return [f"{where}: no Gmean row"]
    for row in rows:
        values = [float(c) for c in row[1:]]
        best = values[opt - 1]
        for col in (bf, off):
            if best < values[col - 1]:
                problems.append(f"{where}: {row[0]}: {headers[opt]} "
                                f"{best} < {headers[col]} {values[col - 1]}")
        if best < 1.0:
            problems.append(f"{where}: {row[0]}: {headers[opt]} {best} "
                            "below the ++bestTLP baseline")
    problems += check_gmean_row(headers, rows, where)
    return problems


def check_gmean_row(headers, rows, where):
    *body, gmean_row = rows
    problems = []
    for col in range(1, len(headers)):
        cells = [r[col] for r in body]
        values = [float(c) for c in cells]
        g = math.exp(sum(math.log(v) for v in values) / len(values))
        printed = float(gmean_row[col])
        h = half_ulp(gmean_row[col])
        tol = h + g * max(half_ulp(c) / v for c, v in zip(cells, values))
        if abs(printed - g) > tol + 1e-12:
            problems.append(f"{where}: Gmean of {headers[col]} printed "
                            f"{printed}, rows give {g:.5f}")
    return problems


def check_fig04(text, where="fig04_ws_eb_gap"):
    """Fig. 4: WS = SD-1 + SD-2 and EB-WS = EB-1 + EB-2 in every row
    (to print precision), and WS(opt) >= WS(best)."""
    problems = []
    tables = parse_tables(text)
    if len(tables) != 2:
        return [f"{where}: expected two tables, found {len(tables)}"]
    for headers, rows in tables:
        if len(rows) != 10:
            problems.append(f"{where}: {len(rows)} rows, expected 10")
        for row in rows:
            for a, b, total in ((1, 2, 3), (4, 5, 6)):
                tol = sum(half_ulp(row[i]) for i in (a, b, total))
                got = float(row[a]) + float(row[b])
                if abs(got - float(row[total])) > tol + 1e-12:
                    problems.append(f"{where}: {row[0]}: {headers[total]} "
                                    f"{row[total]} != {headers[a]} + "
                                    f"{headers[b]} = {got:.4f}")
            if headers[3].startswith("WS") and float(row[6]) < float(row[3]):
                problems.append(f"{where}: {row[0]}: WS(opt) {row[6]} < "
                                f"WS(best) {row[3]}")
    return problems


def sections(text, names):
    """@p text split at the lines that are exactly one of @p names:
    each such name maps to the lines after it, up to the next one."""
    out, current = {}, None
    for line in text.splitlines():
        if line in names:
            current = line
            out[current] = []
        elif current:
            out[current].append(line)
    return {name: "\n".join(lines) for name, lines in out.items()}


def gmean_of(text, prefix):
    """The Gmean row's value in the first column whose header starts
    with @p prefix and is not an offline variant (e.g. 'PBS-WS')."""
    headers, rows = parse_tables(text)[0]
    col = next(i for i, h in enumerate(headers)
               if h.startswith(prefix) and "Offline" not in h)
    return float(rows[-1][col])
