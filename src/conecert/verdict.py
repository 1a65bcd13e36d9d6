"""The exit code of a check as one function of its report: the table
``RULE`` (docs/report-schema.md, "Exit codes"), read from the records of
a check or their JSON alike.  It imports nothing from the package."""

EXIT_OK, EXIT_ERROR, EXIT_REFUTED, EXIT_INCONCLUSIVE = 0, 1, 2, 3

# (name, record, condition, exit): a row holds when the report's record is
# not null and has each field of the condition at its value; a list of
# records, when one of them has, and the condition [] when it is []
RULE = (
    ("infeasible", "feasibility", {"feasible": False}, 2),
    ("membership-refuted", "necessary",
     {"zero_in_D": False, "sampling_limited": False}, 2),
    ("second-order-refuted", "second_order",
     {"mode": "necessary", "refuted": True}, 2),
    ("growth-probe-refuted", "oracle", {"refuted": True}, 2),
    ("membership-sampling-limited", "necessary",
     {"zero_in_D": False, "sampling_limited": True}, 3),
    ("interior-not-certified", "sufficient", {"zero_in_int_D": False}, 3),
    ("no-complete-alternance", "flavor_search", {"complete": None}, 3),
    ("second-order-not-run", "second_order", [], 3),
    ("second-order-sufficient-failed", "second_order",
     {"mode": "sufficient", "passed": False}, 3),
    ("penalty-not-stationary", "penalty", {"zero_in_subdiff": False}, 3),
)


def _holds(record, condition) -> bool:
    if record is None or isinstance(condition, list):
        return record == condition
    if isinstance(record, list):
        return any(_holds(rec, condition) for rec in record)
    return all(record.get(key) == value for key, value in condition.items())


def verdict(report) -> tuple:
    """(exit code, because): the exit of the rows that hold, 2 over 3, or
    0 when none does; and their names, in the table's order."""
    held = [row for row in RULE if _holds(report.get(row[1]), row[2])]
    # 2 (refuted) is the least exit a row can have, and outranks 3
    return (min((row[3] for row in held), default=EXIT_OK),
            [row[0] for row in held])


def broken_implications(report) -> list:
    """The names of the implications between the report's verdicts that
    it breaks; a report without the first-order checks (an infeasible
    point) breaks none."""
    nec, suf = report.get("necessary"), report.get("sufficient")
    if not nec or not suf:
        return []
    member, interior = nec["zero_in_D"], suf["zero_in_int_D"]
    complete = (report.get("flavor_search") or {}).get("complete")
    pen = report.get("penalty")
    holds = {
        "necessary.cadre <=> zero_in_D": (nec["cadre"] is not None) == member,
        "zero_in_int_D => zero_in_D": member or not interior,
        "flavor_search.complete => zero_in_int_D":
            complete is None or interior,
        "penalty.c_min <=> zero_in_D":
            pen is None or (pen["c_min"] is not None) == member,
    }
    return [name for name, ok in holds.items() if not ok]
