"""Figure 14: EQL on CDF graphs (m=3) vs stitched path baselines.

Usage: python jobs/fig14_cdf_m3.py [--full]
"""
import argparse

from repro.experiments.cdf_eql import run
from repro.experiments.common import fmt_table
from repro.spark import start_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args()
    spark = start_spark(
        "fig14-cdf-m3", driver_memory="8g", shuffle_partitions=16, log_level="ERROR"
    )
    print(fmt_table(run(spark, m=3, full=args.full)))
    spark.stop()


if __name__ == "__main__":
    main()
