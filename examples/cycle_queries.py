"""AC(k) and C(k): the Theorem 4 graph algorithm on the Figure 6 instance.

Builds the Figure 6 database, shows that it is not certain for AC(3), prints
a falsifying repair found by the brute-force oracle together with the two
hand-crafted repairs of Figure 7, and then runs the polynomial algorithm on
progressively larger ring instances where repair enumeration would be
hopeless.  The decide times of the ring instances go to stderr.

Run with:  python examples/cycle_queries.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import classify, count_repairs, satisfies
from repro.certainty import brute_force_with_certificate, certain_cycle_query
from repro.model.repairs import is_repair
from repro.query import cycle_query_ac, cycle_query_c
from repro.workloads import figure6_database, figure7_falsifying_repairs, ring_instance


def main() -> None:
    query = cycle_query_ac(3)
    db = figure6_database()

    print("AC(3) =", query)
    print("classification:", classify(query).band)
    print("\nFigure 6 database:")
    print(db.pretty())

    certain = certain_cycle_query(db, query)
    print("\ncertain (Theorem 4 graph algorithm)?", certain)

    certificate = brute_force_with_certificate(db, query)
    print("falsifying repair found by the oracle:")
    for fact in sorted(certificate.falsifying_repair, key=str):
        print("   ", fact)

    print("\nthe two Figure 7 repairs:")
    for index, repair in enumerate(figure7_falsifying_repairs(), start=1):
        assert is_repair(db, repair) and not satisfies(repair, query)
        kind = "unencoded triangle" if index == 1 else "long 6-cycle"
        print(f"  repair {index} ({kind}) falsifies AC(3)")

    print("\nC(3) classification:", classify(cycle_query_c(3)).band)

    # The timings go to stderr, so stdout is the same in every run.
    print("\nscaling the Theorem 4 algorithm on ring instances:")
    print(f"{'copies':>8} {'facts':>8} {'repairs':>12} {'certain':>8}")
    for copies in (4, 8, 16, 32):
        big_query, big_db = ring_instance(3, copies=copies, chords=copies, encoded_fraction=0.5, seed=copies)
        start = time.perf_counter()
        answer = certain_cycle_query(big_db, big_query)
        elapsed = time.perf_counter() - start
        print(f"{copies:>8} {len(big_db):>8} {count_repairs(big_db):>12} {str(answer):>8}")
        print(f"copies={copies}: decided in {elapsed:.4f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
