"""The local SparkSession bootstrap of the test suite and of
``jobs/run.py``; each caller passes its own settings."""
from __future__ import annotations

import os


def start_spark(
    app: str,
    *,
    driver_memory: str,
    shuffle_partitions: int,
    log_level: str | None = None,
):
    """Start (or get) the process's local SparkSession, Arrow on and
    automatic broadcast joins off: the BGP SQL picks its broadcast sides
    by hint (see :mod:`repro.eql.bgp`), and a join without a hint takes
    the shuffle path.

    ``SPARK_DRIVER_MEM`` overrides the caller's driver memory, and
    ``SPARK_MASTER`` sets the master (default ``local[*]``). The JVM reads
    its heap size at launch, from ``PYSPARK_SUBMIT_ARGS``; one already set
    in the environment is kept.
    """
    memory = os.environ.get("SPARK_DRIVER_MEM") or driver_memory
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {memory} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", str(shuffle_partitions))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    if log_level is not None:
        spark.sparkContext.setLogLevel(log_level)
    return spark
