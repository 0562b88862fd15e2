"""The benchmark's server process: one workload's application over HTTP.

Run by ``run.py`` with the repository's ``src`` on ``PYTHONPATH``::

    python3 perfbench/server.py serve WORKLOAD SEED DATA_DIR [--trace]
    python3 perfbench/server.py recover WORKLOAD DATA_DIR OUT_FILE

``serve`` builds a ``HildaApplication`` with the container defaults on a
WAL under ``DATA_DIR``, seeds the workload's generated data, serves it with
a ``ThreadedHildaServer`` (with :mod:`spans` wrappers installed first under
``--trace``) and prints ``READY <port>``.  It then obeys one
command per stdin line:

* ``check OUT_FILE`` — write the integrity problems of every persistent
  table, the workload's checked table and (when traced) the spans to
  ``OUT_FILE``, then print ``CHECKED``;
* ``stop`` — shut the server down, close the application and exit.

``recover`` reopens ``DATA_DIR`` after the server was killed and writes the
reopen time, the integrity problems and the recovered checked table.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

#: The table whose final contents each workload's correctness check reads.
CHECKED_TABLE = {"orders-append": "purchase", "board-fanout": "note"}


def load_workload_program(name: str) -> Any:
    if name == "cms-browse":
        from repro.apps.minicms import load_minicms

        return load_minicms()
    from repro.hilda.program import load_program

    return load_program(
        workloads.ORDERS_SOURCE if name == "orders-append" else workloads.BOARD_SOURCE
    )


def build_application(program: Any, data_dir: str) -> Any:
    """The container defaults, on a write-ahead log under ``data_dir``."""
    from repro.config import EngineConfig, StorageConfig
    from repro.web.container import HildaApplication

    return HildaApplication(program, config=EngineConfig(storage=StorageConfig.wal(data_dir)))


def seed(application: Any, name: str, seed_value: int) -> None:
    if name == "cms-browse":
        from repro.apps.minicms import seed_scaled

        seed_scaled(application.engine, n_courses=4, n_students=50, n_assignments=3)
    else:
        application.engine.seed_persistent(workloads.generated_data(name, seed_value))


def integrity_problems(application: Any) -> List[str]:
    engine = application.engine
    problems: List[str] = []
    with engine.read_locked():
        for aunit in application.program.aunit_names():
            for table in engine.persist_tables(aunit).values():
                problems.extend(table.check_integrity())
    return problems


def checked_rows(application: Any, name: str) -> List[list]:
    table_name = CHECKED_TABLE.get(name)
    if table_name is None:
        return []
    table = application.engine.persistent_table(table_name)  # may restore it from the WAL
    with application.engine.read_locked():
        return [list(row) for row in table.rows]


def write_json(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def serve(name: str, seed_value: int, data_dir: str, traced: bool) -> int:
    from repro.web.server import ThreadedHildaServer

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    application = build_application(load_workload_program(name), data_dir)
    seed(application, name, seed_value)
    server = ThreadedHildaServer(application).start()
    print(f"READY {server.address[1]}", flush=True)
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "check":
            payload = {
                "integrity": integrity_problems(application),
                "rows": checked_rows(application, name),
                "spans": tracer.spans if tracer is not None else [],
            }
            write_json(argument, payload)
            print("CHECKED", flush=True)
        elif command == "stop":
            break
    server.shutdown()
    application.close()
    return 0


def recover(name: str, data_dir: str, out_file: str) -> int:
    program = load_workload_program(name)
    start = time.perf_counter()
    application = build_application(program, data_dir)
    rows = checked_rows(application, name)
    elapsed = time.perf_counter() - start
    write_json(
        out_file,
        {"recovery_s": elapsed, "integrity": integrity_problems(application), "rows": rows},
    )
    application.close()
    return 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["serve"] and argv[4:] in ([], ["--trace"]) and len(argv) >= 4:
        return serve(argv[1], int(argv[2]), argv[3], traced=argv[4:] == ["--trace"])
    if argv[:1] == ["recover"] and len(argv) == 4:
        return recover(argv[1], argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
