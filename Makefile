.PHONY: all check test bench-smoke fmt clean ci

all:
	dune build @all

# build + tier-1 tests (correctness: the kdb oracle over the analytical
# workload and the one Q differential, which checks every Hyper-Q path
# against it; allocation budgets, the fan-out barrier; the introspection
# suite drives the HTTP admin endpoint through its pure handler, so no
# curl or open port) + bench-smoke. Speed is measured by hqbench
# (bench/suite), not gated here.
ci:
	dune build @all
	dune runtest
	$(MAKE) --no-print-directory bench-smoke

# 1/50 of every hqbench workload, each reply checked against the kdb
# oracle (fails on a wrong answer or a failed request)
bench-smoke:
	dune build @bench/suite/bench-suite-smoke

check:
	dune build @dev-check

test:
	dune runtest

fmt:
	dune fmt

clean:
	dune clean
