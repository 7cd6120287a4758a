import os
import sys

import pytest


def _cgroup_driver_mem() -> tuple[str, str]:
    """~75% of the container's memory limit for the Spark driver JVM, and
    where that figure came from. ``SPARK_DRIVER_MEM`` in the environment
    overrides it (see :func:`repro.spark.start_spark`).

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap;
    the fallback is 48g.
    """
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            return f"{max(1, int(gib * 0.75))}g", f"cgroup:{p}={raw}"
        except (OSError, ValueError):
            continue
    return "48g", "fallback"


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, with 64
    shuffle partitions and the cgroup-derived driver memory."""
    from repro.spark import start_spark

    memory, src = _cgroup_driver_mem()
    if "SPARK_DRIVER_MEM" in os.environ:
        src = "env"
    s = start_spark("repro", driver_memory=memory, shuffle_partitions=64)
    # One stderr line: the driver memory as the running JVM's conf has it,
    # and where the figure came from (env, cgroup limit or fallback).
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
