"""The intermediate calculi at work: RC(S_left) and RC(S_reg) (Section 7).

RC(S) cannot prepend characters (``SELECT a.x FROM R`` is inexpressible)
and cannot do full regular matching; RC(S_len) can do both but at
polynomial-hierarchy cost.  The paper's answer: two *tame* extensions.
This example uses both on a log-normalization scenario: record IDs that
must be re-tagged on the left (S_left) and validated against a regular
format (S_reg).

Run with::

    python examples/string_transformations.py
"""

from repro import Query, StringDatabase, language_is_star_free
from repro.algebra import AddFirstOp, BaseRel, Project, RA_S_left, TrimFirstOp
from repro.strings import BINARY


def main() -> None:
    # Record IDs: version bit then payload. 0-prefixed = legacy format.
    db = StringDatabase(
        "01",
        {"IDS": {"0110", "0011", "1110", "1001", "010"}},
    )
    print(f"record ids: {sorted(s for (s,) in db.db.relation('IDS'))}")
    print()

    # ---- RC(S_left): strip the legacy '0' tag and re-tag with '1'.
    migrate = Query(
        "exists adom x: IDS(x) & eq(add_first(trim_first(x, '0'), '1'), y)",
        structure="S_left",
    )
    print("migrated ids (strip leading '0', prepend '1') via RC(S_left):")
    print(f"  {migrate.run(db).rows()}")
    print()

    # The same computation as an RA(S_left) plan (Theorem 8's algebra).
    plan = Project(
        AddFirstOp(TrimFirstOp(BaseRel("IDS", 1), 0, "0"), 1, "1"),
        (2,),
    )
    rows = RA_S_left(BINARY).evaluate(plan, db.db)
    print(f"same as an RA(S_left) plan: {plan}")
    print(f"  {sorted(rows)}")
    print()

    # ---- RC(S_reg): validate against a regular format -- even-length
    # payload blocks, a non-star-free condition LIKE can never express.
    validate = Query(
        'IDS(x) & matches(x, "(0|1)((0|1)(0|1))*")',  # odd total length
        structure="S_reg",
    )
    print("ids with odd length (tag + even payload) via RC(S_reg):")
    print(f"  {validate.run(db).rows()}")
    print()

    # The definable-language dichotomy (Sections 4 and 7):
    like_style = Query('matches(x, "0(0|1)*")', structure="S")
    regular_only = Query('matches(x, "(00)*")', structure="S_reg")
    print("definable-language classes:")
    print(f"  LIKE-style '0%': star-free? {language_is_star_free(like_style)}")
    print(f"  (00)*:           star-free? {language_is_star_free(regular_only)}")
    print("  -> (00)* separates RC(S_reg) from RC(S) and RC(S_left) (Figure 1)")


if __name__ == "__main__":
    main()
