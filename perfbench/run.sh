#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload fig6-serial --seed 42 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 42      # every workload in turn
#
# Run it from the repository root. The Go build cache, temporary files,
# the go command's own config and telemetry files, and the binary stay
# under .bench_build/ in the current directory; dated results land in
# .bench_results/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C "$root/perfbench" build -o "$build/perfbench" .

args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ "${args[i]}" == "--workload" && "${args[i+1]:-}" == "all" ]]; then
		rc=0
		for w in fig6-serial fig6-sharded scenario-sweep; do
			args[i+1]=$w
			"$build/perfbench" "${args[@]}" || rc=$?
		done
		exit "$rc"
	fi
done
exec "$build/perfbench" "$@"
