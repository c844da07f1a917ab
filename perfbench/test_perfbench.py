#!/usr/bin/env python3
"""Self-tests of the benchmark: determinism and per-layer invariants.

    python3 perfbench/test_perfbench.py          # from the repository root

Builds through run.py, then runs each workload briefly. Modelled and
exact-count metrics must be bit-identical for one seed; the held-out seed
must run clean; the per-layer read-out must satisfy invariants that catch
a mis-wired counter or span.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The workloads BENCHMARK.json lists. crash_recover is tested on its own:
# it stays out of the benchmark while it trips a stack defect (README).
WORKLOADS = ("pipeline_small", "openloop_durable")
TUNING_SEED = 7
# Not used while the benchmark was tuned; later gain claims must hold on it.
HELD_OUT_SEED = 9001
_cache = {}


def invoke(workload, seed, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)


def run(workload, seed, trace, tag=0):
    """(metrics, labels) of one short run; `tag` forces a fresh process."""
    key = (workload, seed, trace, tag)
    if key not in _cache:
        out = invoke(workload, seed, trace)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise AssertionError(f"{workload} seed {seed} trace {trace} failed:\n"
                                 f"{out.stdout[-3000:]}\n{out.stderr[-3000:]}")
        result = json.loads(lines[-1])
        labels = json.loads(lines[-2].split(" ", 1)[1])
        if not result["correct"] or result["attempted"] < 1:
            raise AssertionError(f"{workload} seed {seed}: gate failed\n{out.stdout[-3000:]}")
        _cache[key] = ({k: v["value"] for k, v in result["metrics"].items()}, labels)
    return _cache[key]


def deterministic(labels):
    return [k for k, lab in labels.items() if lab in ("modelled", "measured, exact")]


class Determinism(unittest.TestCase):
    def check_repeat(self, workload, trace):
        a, labels = run(workload, TUNING_SEED, trace, tag=0)
        b, _ = run(workload, TUNING_SEED, trace, tag=1)
        names = deterministic(labels)
        self.assertTrue(names)
        for name in names:
            self.assertEqual(a[name], b[name], f"{workload} {name} differs between runs")

    def test_end_to_end_repeat(self):
        for w in WORKLOADS:
            self.check_repeat(w, 0)

    def test_per_layer_repeat(self):
        for w in WORKLOADS:
            self.check_repeat(w, 1)

    def test_held_out_seed_runs_clean(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                metrics, _ = run(w, HELD_OUT_SEED, trace)
                self.assertTrue(metrics)

    def test_seed_changes_inputs(self):
        for w in WORKLOADS:
            a, _ = run(w, TUNING_SEED, 0)
            b, _ = run(w, HELD_OUT_SEED, 0)
            self.assertNotEqual(a["wire_bytes_per_op"], b["wire_bytes_per_op"], w)


class PerLayerInvariants(unittest.TestCase):
    def test_pipeline_small(self):
        m, _ = run("pipeline_small", TUNING_SEED, 1)
        # Counters are baselined after the warm-up calls (the cluster
        # constructor resets the registry): 3 active replicas, 3 executions.
        self.assertEqual(m["rep.executions_per_op"], 3.0)
        # Registry sim.events_fired, not Simulation::events_executed(),
        # which step() never increments.
        self.assertGreater(m["sim.events_per_op"], 0)
        self.assertGreaterEqual(m["sim.timers_per_op"], m["sim.events_per_op"])
        # Every datagram delivery is one totem.recv span: unicasts reach
        # one node, multicasts the 3 others (no loss, no faults). Only the
        # few datagrams in flight across the window's edges may differ.
        unicasts = m["net.datagrams_per_op"] - m["net.multicasts_per_op"]
        self.assertAlmostEqual(m["totem.recv_calls_per_op"],
                               unicasts + 3 * m["net.multicasts_per_op"], delta=1e-3)
        self.assertGreater(m["totem.recv_ns_per_op"], 0)
        self.assertGreater(m["rep.invoke_ns_per_op"], 0)
        self.assertGreater(m["obs.trace_wire_bytes_per_op"], 0)
        self.assertGreater(m["orb.plain_ns_per_op"], 0)
        # dur and app state capture are idle here by construction.
        for name in ("dur.appends_per_op", "dur.checkpoints_cut", "dur.resident_bytes",
                     "app.state_captures_per_op"):
            self.assertEqual(m[name], 0, name)

    def test_openloop_durable(self):
        m, _ = run("openloop_durable", TUNING_SEED, 1)
        for name in ("dur.appends_per_op", "dur.journal_bytes_per_op", "dur.checkpoints_cut",
                     "dur.resident_bytes", "dur.overhead_ns_per_op",
                     "app.state_captures_per_op", "rep.state_updates_per_write",
                     "load.max_rate_ok"):
            self.assertGreater(m[name], 0, name)
        # Active groups execute at 3 replicas, warm-passive at 1.
        self.assertGreater(m["rep.executions_per_op"], 1)
        self.assertLess(m["rep.executions_per_op"], 3)

    def test_crash_recover(self):
        m, _ = run("crash_recover", TUNING_SEED, 1)
        for name in ("ft.replicas_spawned", "ft.recover_domain_ns", "ft.reconverge_sim_ms",
                     "ft.outage_ms", "ft.recover_host_ms", "dur.records_scanned",
                     "dur.records_replayed", "dur.checkpoints_loaded",
                     "totem.views_installed", "rep.failovers", "rep.snapshots_served"):
            self.assertGreater(m[name], 0, name)
        self.assertGreaterEqual(m["dur.records_scanned"], m["dur.records_replayed"])

    def test_metric_sets_match_benchmark_json(self):
        # Both benchmarked workloads print exactly the listed metrics, in
        # order; crash_recover's fault metrics are not among them.
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                m, _ = run(w, TUNING_SEED, trace)
                self.assertEqual(list(m), [x["name"] for x in spec[key]], (w, key))


class KnownDefect(unittest.TestCase):
    # Seed 9 makes one g0 replica come back from a power cut one write
    # behind its siblings while all report synced (README, known defects).
    # When the stack is fixed this test passes unexpectedly: drop the
    # decorator and put crash_recover back into BENCHMARK.json.
    @unittest.expectedFailure
    def test_crash_recover_seed_9_passes_gate(self):
        out = invoke("crash_recover", 9, 0)
        self.assertEqual(out.returncode, 0, out.stdout[-2000:])
        self.assertTrue(json.loads(out.stdout.strip().splitlines()[-1])["correct"])


if __name__ == "__main__":
    unittest.main()
