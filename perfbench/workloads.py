"""The four benchmark workloads as lists of ``nlaa.cli.main`` calls.

Every call runs serially (``--workers`` keeps its default of 1). The process
pools behind ``--workers > 1`` are deliberately not a workload; a change that
alters or deletes them first adds a pool workload in its own benchmark change.

Each workload also names a small warm-up of the same subcommands at the same
chain lengths, run before timing so that lazy imports and the ``critical_r``
cache are filled, and the scans whose grid size the traced run needs.
"""

SCAN_GRID = ["scan", "--delta-step", "0.1", "--u-step", "0.5"]
# (kind, L, U, Delta) of its cells, rounded as in cell_key(): the CLI's
# defaults are both kinds, L = 21, U in [-1, 1] and Delta in [0, 4]
SCAN_GRID_KEYS = frozenset((kind, 21, round(0.5 * i - 1.0, 9), round(0.1 * k, 9))
                           for kind in ("gs", "es") for i in range(5)
                           for k in range(41))
SCAN_GRID_CELLS = len(SCAN_GRID_KEYS)
STORE_NAME = "scan_cells.jsonl"       # the CLI's default store in --out
SCAN_WARM = ["scan", "--delta-max", "0.2", "--delta-step", "0.1",
             "--u-min", "0", "--u-max", "0"]

FIT_SEED_DEFAULT = 12345


def calls(workload, seed):
    """[(out subdirectory, argv without --out), ...] timed for `workload`."""
    if workload == "scan_grid":
        return [("scan", SCAN_GRID)]
    if workload == "ramp_fit":
        return [("fit", ["fit", "--synthesize", "--u-over-j", "0.3",
                         "--bootstrap", "200", "--seed", str(seed % 2**32)])]
    if workload == "finite_size":
        return [("phases", ["phases", "--L", "144", "--delta-max", "16",
                            "--delta-step", "0.5", "--u-min", "-0.5",
                            "--u-max", "0.5", "--u-step", "0.5"])]
    if workload == "serial_path":
        return [("scan", SCAN_GRID),
                ("evolve", ["evolve", "--L", "61", "--t-final", "10",
                            "--delta-over-j", "1", "--u-over-j", "0.8"]),
                ("gaa", ["gaa-me", "--L", "987", "--alpha", "0.3"])]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload):
    """Small calls of the same subcommands, untimed and counted as set-up."""
    if workload == "scan_grid":
        return [SCAN_WARM]
    if workload == "ramp_fit":
        return [["fit", "--synthesize", "--u-over-j", "0.3", "--n-points", "8",
                 "--dt", "0.01"]]
    if workload == "finite_size":
        return [["phases", "--L", "144", "--delta-max", "0.5",
                 "--delta-step", "0.5", "--u-min", "0", "--u-max", "0"]]
    if workload == "serial_path":
        return [SCAN_WARM,
                ["evolve", "--L", "61", "--t-final", "0.1"],
                ["gaa-me", "--L", "55", "--alpha", "0.3"]]
    raise ValueError(f"unknown workload {workload!r}")


def cell_key(rec):
    """(kind, L, U, Delta) of a store record, None if it is not a cell."""
    try:
        return (rec["kind"], rec["L"], round(float(rec["u"]), 9),
                round(float(rec["delta"]), 9))
    except (KeyError, TypeError, ValueError):
        return None


def grid_cells(workload):
    """Cells of the scans a workload runs (the rest of a store is reused)."""
    return SCAN_GRID_CELLS if workload in ("scan_grid", "serial_path") else 0


NAMES = ("scan_grid", "ramp_fit", "finite_size", "serial_path")
