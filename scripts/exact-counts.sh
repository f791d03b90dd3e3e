#!/usr/bin/env bash
# Prints the exact simulated counts of one traced benchmark run (seed 1, one
# second of work per workload, all four workloads): 14 lines per workload,
# "workload metric value unit". CI diffs them against
# testdata/exact_counts.txt. Run from the repository root; after a change
# that alters simulated work on purpose, regenerate the record with
#
#   bash scripts/exact-counts.sh > testdata/exact_counts.txt
set -euo pipefail
bash bench/run.sh --trace 1 --seconds 1 --seed 1 | awk '$2 ~ /^(sim\.(events|cycles)|machine\.proc_ops|core\.(requests|local_hits|naks|retries|invals|updates)|mem\.queue_wait_cycles|mesh\.(messages|flits|inject_wait_cycles|eject_wait_cycles))$/'
