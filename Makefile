.PHONY: all check test bench bench-smoke fmt clean ci

all:
	dune build @all

# build + full test suite + the bench-smoke list below: the
# correlation-plane overhead smoke gate +
# the plan-cache reuse gate (warm hit ratio >= 0.95, warm mean < cold
# mean, zero result divergence) + the shard scaling gate (>= 1.5x at 4
# shards under the simulated remote-latency model, zero divergence vs
# the unsharded engine) + the cluster-observability gate (per-shard
# child spans, traceparent stamping, ring sampling and SLO evaluation
# cost <= 2.5% of scatter latency on a 2-shard cluster) + the explain
# gate (per-operator EXPLAIN/ANALYZE instrumentation costs <= 2.5% of
# mean query latency while collection is off) + the runtime gate
# (per-query GC/allocation attribution costs <= 2.5% of mean query
# latency) + the layered benchmark's smoke run (1/50 of every
# workload, each reply checked against the kdb oracle); the
# introspection suite exercises the HTTP admin endpoint through its pure
# handler, so no curl / open port needed
ci:
	dune build @all
	dune runtest
	$(MAKE) --no-print-directory bench-smoke

# quick overhead gates and the oracle-checked benchmark smoke run
# (exit 1 on regression)
bench-smoke:
	dune exec bench/main.exe -- smoke
	dune exec bench/main.exe -- plan_cache_gate
	dune exec bench/main.exe -- shard_gate
	dune exec bench/main.exe -- obs_gate
	dune exec bench/main.exe -- explain_gate
	dune exec bench/main.exe -- runtime_gate
	dune build @bench/suite/bench-suite-smoke

check:
	dune build @dev-check

test:
	dune runtest

bench:
	dune exec bench/main.exe

fmt:
	dune fmt

clean:
	dune clean
