"""Table 1: EQL queries J1/J2/J3 on yago_lite — MoLESP-EQL vs JEDI-sub,
Virtuoso-sub, Neo4j-sub.

Usage: python jobs/table1_yago.py [--scale S]
"""
import argparse

from repro.experiments.common import fmt_table
from repro.experiments.table1_yago import run
from repro.spark import start_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=0.25)
    args = ap.parse_args()
    spark = start_spark(
        "table1-yago", driver_memory="8g", shuffle_partitions=16, log_level="ERROR"
    )
    print(fmt_table(run(spark, scale=args.scale)))
    spark.stop()


if __name__ == "__main__":
    main()
