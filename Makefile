GO ?= go

.PHONY: build loc vet test race check-test alloc-gate scale-smoke shard-smoke trace-smoke fuzz-smoke highspeed-smoke te-smoke ctrlscale-smoke bench-smoke bench obs-bench manifest-sample ci

build:
	$(GO) build ./...

# Non-test Go lines outside bench/, per package and in total: the size
# every design change is judged by.
loc:
	@files=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*'); \
	wc -l $$files | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); \
		n[d == "" ? "." : d] += $$1 } END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2; \
	cat $$files | wc -l | xargs printf '%7d total\n'

# go vet, plus gofmt as a gate: any file gofmt would rewrite fails.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The parallel point pool and the experiment determinism tests under
# the race detector; sim is included because the engine is what the
# pooled goroutines drive hardest. Under -race internal/experiments
# takes about ten minutes on 2 vCPUs, go test's default timeout, so the
# target sets its own.
race:
	$(GO) test -race -timeout 30m ./internal/experiments/ ./internal/sim/

# The full test suite with the runtime invariant checker force-enabled:
# every simulation any test runs is verified against the packet
# conservation / queue ordering / arbitration feasibility / FCT-bound
# invariants, and the first violation fails the run loudly.
check-test:
	PASE_CHECK=1 $(GO) test ./...

# Allocation-drift gate: the seven benchmark reference configurations and
# PDQ at a few hundred flows each, failing when bytes or objects allocated per
# flow exceed the budgets committed in alloc_gate_test.go. Allocation
# counts repeat almost exactly, so this is a hard test, not a timing
# comparison; a dedicated process keeps other tests out of the counts.
# TestSetupScalesWithLinks holds set-up linear in the fabric's links:
# ctrlscale-2048 may cost at most 4.4x ctrlscale-512. The two
# TestFlowTurnoverAllocs pin one warm flow of every protocol at zero
# objects: transport's for the six of its tree, endhost's for PASE.
alloc-gate:
	$(GO) test -run 'TestAllocGate|TestSetupScalesWithLinks' -count=1 -v .
	$(GO) test -run 'TestFlowTurnoverAllocs' -count=1 -v ./internal/transport/ ./internal/core/endhost/

# The streaming scale sweep at 10^5 flows with invariants force-enabled
# and a hard 256 MB Go-heap ceiling: a dedicated test process (so no
# other test inflates the heap first) proving bounded-memory runs stay
# bounded. See TestScaleSmoke.
scale-smoke:
	PASE_CHECK=1 PASE_SCALE_SMOKE=1 $(GO) test -run 'TestScaleSmoke' -count=1 -v ./internal/experiments/

# Sharded-engine smoke: checked 4-shard runs end to end — a 10^5-flow
# leaf-spine streaming run, a tree run and a fault-free rerouted
# leaf-spine run. A leg fails if pasesim reports a serial fallback on
# stderr (the shards=N twins and TestSharded* run in check-test, and
# under the race detector in race).
shard-smoke:
	@mkdir -p artifacts; for leg in \
		"-scenario leaf-spine-wide -stream -flows 100000 -load 0.6" \
		"-scenario left-right -load 0.6 -stream -flows 20000" \
		"-scenario leaf-spine -load 0.6 -flows 2000 -reroute"; do \
		echo "pasesim -protocol DCTCP $$leg -shards 4"; \
		PASE_CHECK=1 $(GO) run ./cmd/pasesim -protocol DCTCP $$leg -shards 4 -progress=false 2>artifacts/shard-smoke.err; \
		status=$$?; cat artifacts/shard-smoke.err >&2; \
		if [ $$status -ne 0 ] || grep -q 'ran on the serial engine' artifacts/shard-smoke.err; then exit 1; fi; \
	done

# Recorder smoke: one checked, faulted traced run end to end, stored
# and streamed (-stream), whose two trace files must be byte-identical
# and which the pasetrace analyzer must validate and digest (exit 0),
# and one serial streamed run that writes the flow-event and queue
# TSVs, each of which must start with its header (the trace pins and
# recorder tests run in check-test).
trace-smoke:
	mkdir -p artifacts
	PASE_CHECK=1 $(GO) run ./cmd/pasesim -protocol DCTCP -scenario left-right -load 0.7 -flows 2000 -check \
		-faults "loss:rate=0.002" -trace artifacts/trace-smoke-stored.json -progress=false
	PASE_CHECK=1 $(GO) run ./cmd/pasesim -protocol DCTCP -scenario left-right -load 0.7 -flows 2000 -stream -check \
		-faults "loss:rate=0.002" -trace artifacts/trace-smoke.json -progress=false
	cmp artifacts/trace-smoke-stored.json artifacts/trace-smoke.json
	$(GO) run ./cmd/pasetrace artifacts/trace-smoke.json
	rm -f artifacts/flows.tsv artifacts/q.tsv
	PASE_CHECK=1 $(GO) run ./cmd/pasesim -protocol PASE -scenario left-right -load 0.7 -flows 2000 -stream -check \
		-flowlog artifacts/flows.tsv -queuetrace artifacts/q.tsv -progress=false
	test "$$(head -1 artifacts/flows.tsv)" = "$$(printf '# time_ns\tkind\tflow\tsrc\tdst\tsize\tfct_ns')"
	test "$$(head -1 artifacts/q.tsv)" = "$$(printf '# time_ns\tport\tqlen\tqbytes')"

# Each fuzz target gets a short budget over its committed seed corpus
# (testdata/fuzz/) — a CI-sized smoke that still explores beyond the
# seeds. -fuzz accepts one target per invocation, hence one run each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPrioQueue$$' -fuzztime 10s ./internal/netem/
	$(GO) test -run '^$$' -fuzz '^FuzzPfabricQueue$$' -fuzztime 10s ./internal/netem/
	$(GO) test -run '^$$' -fuzz '^FuzzCreditQueue$$' -fuzztime 10s ./internal/netem/
	$(GO) test -run '^$$' -fuzz '^FuzzArbitrator$$' -fuzztime 10s ./internal/core/arbitration/
	$(GO) test -run '^$$' -fuzz '^FuzzPDQGrant$$' -fuzztime 10s ./internal/core/arbitration/
	$(GO) test -run '^$$' -fuzz '^FuzzArbitrationTree$$' -fuzztime 10s ./internal/core/arbitration/
	$(GO) test -run '^$$' -fuzz '^FuzzClimb$$' -fuzztime 10s ./internal/core/arbitration/
	$(GO) test -run '^$$' -fuzz '^FuzzFaultPlan$$' -fuzztime 10s ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzQuantileSketch$$' -fuzztime 10s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzRankOrder$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime 10s ./internal/sim/

# ExpressPass gate: one checked 10^5-flow 100 Gbps incast run end to
# end, credit_pace included (the credit transport's pins and tests run
# in check-test).
highspeed-smoke:
	PASE_CHECK=1 $(GO) run ./cmd/pasesim -protocol ExpressPass -scenario incast-256 -load 0.7 -flows 100000 -stream -check -progress=false

# Routing-control-loop gate: one checked rerouted run through a real
# uplink outage end to end. The route-table proof, the reroute pins and
# tests run in check-test.
te-smoke:
	PASE_CHECK=1 $(GO) run ./cmd/pasesim -protocol PASE -scenario te-failover -load 0.6 -flows 2000 \
		-reroute -abort-after 100ms -faults "linkdown:link=80,at=3100us,for=250ms" -check -progress=false

# Arbitration-control-plane gate: one checked 512-rack run per arm end
# to end — the hierarchy at datacenter scale and the centralized
# comparison on the same fabric — and the centralized arm again under
# lost and late control messages and arbitrator crashes (the hierarchy
# suite, fuzzer seeds and ctrlplane/arbstats pins run in check-test).
ctrlscale-smoke:
	PASE_CHECK=1 $(GO) run ./cmd/pasesim -protocol PASE -scenario ctrlscale-512 -load 0.6 -flows 2000 -check -progress=false
	PASE_CHECK=1 $(GO) run ./cmd/pasesim -protocol PASE -scenario ctrlscale-512 -load 0.6 -flows 2000 -central -check -progress=false
	PASE_CHECK=1 $(GO) run ./cmd/pasesim -protocol PASE -scenario ctrlscale-512 -load 0.6 -flows 2000 -central -check -progress=false \
		-faults "ctrl:drop=0.2,delay=20us; crash:link=*,at=2ms,for=1ms,every=10ms"

# One iteration of each benchmark: the root set-up costs and the engine
# and queue micro-benchmarks, so they keep compiling and running without
# paying full bench time.
bench-smoke:
	$(GO) test -bench 'BenchmarkSetup' -benchtime 1x -run '^$$' .
	$(GO) test -bench . -benchtime 1000x -run '^$$' ./internal/sim/ ./internal/netem/

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim/ ./internal/netem/ ./internal/obs/
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The observability hot path must stay allocation-free: -benchmem makes
# any stray allocation visible, and the package's own tests assert
# 0 allocs/op hard.
obs-bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/obs/

# Small end-to-end runs that write fig9a's and fig11a's TSVs + run
# manifests into artifacts/ (CI uploads the manifests so every build
# carries a sample; fig11a's records the seed count its figure defaults).
manifest-sample:
	$(GO) run ./cmd/paper -fig 9a -flows 120 -loads 0.5,0.8 -out artifacts -progress=false
	$(GO) run ./cmd/paper -fig 11a -flows 60 -loads 0.5 -out artifacts -progress=false

# The same stages, in the same order, as .github/workflows/ci.yml.
ci: vet build loc test race check-test alloc-gate scale-smoke shard-smoke trace-smoke fuzz-smoke highspeed-smoke te-smoke ctrlscale-smoke bench-smoke obs-bench manifest-sample
