"""Server side of the served-hot and fabric-churn topologies.

Run by ``run.py`` as one child process.  It builds the same seeded engine
the load generator's oracle builds, starts the topology, prints one JSON
line with its addresses, and serves until its standard input closes.

    python3 perfbench/child.py --role served --seed 1 --workdir DIR
    python3 perfbench/child.py --role fabric --seed 1 --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.service import DecisionCache, InvalidationBus, LtamServer, PartitionMap  # noqa: E402

import common  # noqa: E402
import workloads  # noqa: E402


def _serve_until_stdin_closes(servers) -> None:
    """Answer ``ref`` lines with this process's reference speed; stop at EOF.

    The load generator asks between measurement rounds, while none of its
    requests is in flight, so the reference loop measures the CPU the
    servers run on without competing with them.
    """
    try:
        for line in sys.stdin:
            if line.strip() == "ref":
                print(json.dumps({"ref": common.reference_speed()}), flush=True)
    finally:
        for server in reversed(servers):
            server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("served", "fabric"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    servers = []
    try:
        if args.role == "served":
            inputs = workloads.served_inputs(args.seed)
            engine = workloads.build_engine(inputs)
            servers.append(LtamServer(engine, cache=DecisionCache()).start())
            addresses = {"server": "%s:%d" % servers[0].address}
        else:
            inputs = workloads.fabric_inputs(args.seed)
            owners = PartitionMap({name: "127.0.0.1:1" for name in workloads.PARTITIONS})
            bus = InvalidationBus()
            addresses = {}
            for name in workloads.PARTITIONS:
                history = [r for r in inputs.history if owners.owner(r.subject) == name]
                engine = workloads.build_engine(
                    inputs, history=history, sqlite=os.path.join(args.workdir, f"{name}.db")
                )
                server = LtamServer(
                    engine,
                    cache=DecisionCache(maxsize=workloads.FABRIC_CACHE_CAP),
                    partition=name,
                    replica_id=name,
                    bus=bus if not servers else bus.address,
                ).start()
                servers.append(server)
                addresses[name] = "%s:%d" % server.address
        print(json.dumps({"ready": True, "addresses": addresses}), flush=True)
        _serve_until_stdin_closes(servers)
        servers = []
        # Stdin closes when the load generator stops us or dies: either way
        # nothing else will clean up the SQLite files.
        shutil.rmtree(args.workdir, ignore_errors=True)
    finally:
        for server in reversed(servers):
            server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
