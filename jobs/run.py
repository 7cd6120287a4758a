"""Regenerate one evaluation artefact of the paper (§5) and print its table.

Usage: python jobs/run.py {fig10,fig11,fig12,fig13,fig14,table1}
                          [--full] [--scale S] [--timeout T] [--queries N]

Only the options given are passed on, so each experiment's ``run()`` keeps
its own defaults; an option the artefact does not take is an error. The
artefacts that need Spark share one local session.
"""
import argparse

from repro.experiments import (
    cdf_eql, fig10_baselines, fig11_variants, fig12_qgstp, table1_yago,
)
from repro.spark import start_spark

# Option -> keyword of the experiments' run().
OPTIONS = {
    "full": "full",
    "scale": "scale",
    "timeout": "timeout_s",
    "queries": "queries_per_m",
}

# Artefact -> (run, fixed keywords, accepted options, needs Spark).
ARTEFACTS = {
    "fig10": (fig10_baselines.run, {}, ("full", "timeout"), False),
    "fig11": (fig11_variants.run, {}, ("full", "timeout"), False),
    "fig12": (fig12_qgstp.run, {}, ("scale", "queries", "timeout"), False),
    "fig13": (cdf_eql.run, {"m": 2}, ("full",), True),
    "fig14": (cdf_eql.run, {"m": 3}, ("full",), True),
    "table1": (table1_yago.run, {}, ("scale",), True),
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("artefact", choices=ARTEFACTS)
    ap.add_argument("--full", action="store_true", default=None)
    ap.add_argument("--scale", type=float)
    ap.add_argument("--timeout", type=float)
    ap.add_argument("--queries", type=int)
    given = {k: v for k, v in vars(ap.parse_args()).items() if v is not None}
    artefact = given.pop("artefact")
    run, fixed, accepted, needs_spark = ARTEFACTS[artefact]
    for opt in given.keys() - set(accepted):
        ap.error(f"{artefact} takes no --{opt}")
    kwargs = {**fixed, **{OPTIONS[opt]: v for opt, v in given.items()}}
    if not needs_spark:
        print(run(**kwargs).to_string(index=False))
        return
    spark = start_spark(
        f"repro-{artefact}", driver_memory="8g", shuffle_partitions=16,
        log_level="ERROR",
    )
    try:
        print(run(spark, **kwargs).to_string(index=False))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
