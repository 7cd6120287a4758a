import os
import sys

import pytest


def _driver_mem() -> str:
    """Half of physical memory for the Spark driver JVM, clamped to 2-8g.
    ``SPARK_DRIVER_MEM`` in the environment overrides it (see
    :func:`repro.spark.start_spark`)."""
    half_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") >> 31
    return f"{min(8, max(2, half_gib))}g"


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, with 64
    shuffle partitions and half of physical memory (2-8g) for the driver."""
    from repro.spark import start_spark

    src = "env" if "SPARK_DRIVER_MEM" in os.environ else "sysconf"
    s = start_spark("repro", driver_memory=_driver_mem(), shuffle_partitions=64)
    # One stderr line: the driver memory as the running JVM's conf has it,
    # and where the figure came from (env or physical memory).
    print(
        f"[conftest] SPARK_DRIVER_MEM="
        f"{s.sparkContext.getConf().get('spark.driver.memory')} "
        f"(src={src}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
