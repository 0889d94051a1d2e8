package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"pase/internal/netem"
	"pase/internal/sim"
)

// digest folds every field of every FlowSpec into one FNV-1a hash, so
// two generators that disagree anywhere — ids, endpoints, sizes,
// timestamps, deadlines, task grouping — produce different digests.
func digest(flows []FlowSpec) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, f := range flows {
		w(uint64(f.ID))
		w(uint64(f.Src))
		w(uint64(f.Dst))
		w(uint64(f.Size))
		w(uint64(f.Start))
		w(uint64(f.Deadline))
		if f.Background {
			w(1)
		} else {
			w(0)
		}
		w(f.Task)
	}
	return h.Sum64()
}

func drain(st *Stream) []FlowSpec {
	var out []FlowSpec
	for {
		f, ok := st.Next()
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

// streamSpecs is the table the equivalence suite runs: every pattern,
// fan-in, deadlines, background flows, and the 0/1-flow edge cases.
func streamSpecs() map[string]Spec {
	hosts := HostRange(0, 20)
	return map[string]Spec{
		"all-to-all": {
			Pattern: AllToAll{Hosts: hosts}, Sizes: UniformSize{Min: 2_000, Max: 198_000},
			Load: 0.6, Reference: 10 * netem.Gbps, NumFlows: 3000,
		},
		"fanin-19": {
			Pattern: AllToAll{Hosts: hosts}, Sizes: UniformSize{Min: 20_000, Max: 20_000},
			Load: 0.7, Reference: 10 * netem.Gbps, NumFlows: 2000, Fanin: 19,
		},
		"fanin-truncated-batch": {
			// NumFlows not divisible by Fanin: the last query event is
			// cut short mid-batch.
			Pattern: AllToAll{Hosts: hosts}, Sizes: UniformSize{Min: 20_000, Max: 20_000},
			Load: 0.7, Reference: 10 * netem.Gbps, NumFlows: 100, Fanin: 19,
		},
		"deadlines-and-background": {
			Pattern: LeftRight{Left: HostRange(0, 10), Right: HostRange(10, 20)},
			Sizes:   UniformSize{Min: 100_000, Max: 500_000},
			Load:    0.8, Reference: 10 * netem.Gbps, NumFlows: 1500,
			DeadlineMin:     sim.Duration(5 * sim.Millisecond),
			DeadlineMax:     sim.Duration(25 * sim.Millisecond),
			BackgroundFlows: 2,
		},
		"one-flow": {
			Pattern: AllToAll{Hosts: hosts}, Sizes: UniformSize{Min: 1_000, Max: 1_000},
			Load: 0.5, Reference: 10 * netem.Gbps, NumFlows: 1,
		},
		"zero-flows": {
			Pattern: AllToAll{Hosts: hosts}, Sizes: UniformSize{Min: 1_000, Max: 1_000},
			Load: 0.5, Reference: 10 * netem.Gbps, NumFlows: 0,
		},
	}
}

// pinnedSequences holds, for every streamSpecs shape, the flow count
// and the digest of seeds 1, 2 and 3 as Generate produced them when it
// still ran its own copy of the arrival loop. Stream must keep
// yielding exactly these sequences: same RNG draws, same ids, same
// fan-in batching.
var pinnedSequences = map[string]struct {
	flows   int
	digests [3]uint64
}{
	"all-to-all":               {3000, [3]uint64{0x49c58077dc8ff73e, 0xa23a9e0e3d074df1, 0x1566c7e4f598dd65}},
	"deadlines-and-background": {1502, [3]uint64{0x723e44be8840873d, 0x3c0cc18e7c558890, 0x149d7aad4ed6a373}},
	"fanin-19":                 {2000, [3]uint64{0x46a7ed53bc5c0036, 0x52a4d56ca0651588, 0x156d818ae779f6e9}},
	"fanin-truncated-batch":    {100, [3]uint64{0x17a72bb4409af642, 0xf71eb3dc1ca7070f, 0x49057ef1659a7029}},
	"one-flow":                 {1, [3]uint64{0xb0452f3a5526f1fc, 0x6e15ea8cfddc83f6, 0x89d5ce52b24217e2}},
	"zero-flows":               {0, [3]uint64{0xcbf29ce484222325, 0xcbf29ce484222325, 0xcbf29ce484222325}},
}

// TestStreamMatchesGenerate checks Stream and Generate against the
// pinned sequences for every spec shape, so Stream keeps yielding what
// Generate's own loop once did.
func TestStreamMatchesGenerate(t *testing.T) {
	for name, spec := range streamSpecs() {
		pin, ok := pinnedSequences[name]
		if !ok {
			t.Fatalf("%s: no pinned sequence", name)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			for _, run := range []struct {
				how   string
				flows []FlowSpec
			}{
				{"stream", drain(spec.Stream(sim.NewRand(seed), 1))},
				{"generate", spec.Generate(sim.NewRand(seed), 1)},
			} {
				if len(run.flows) != pin.flows || digest(run.flows) != pin.digests[seed-1] {
					t.Errorf("%s seed %d: %s yields %d flows, digest %#016x; pinned %d flows, %#016x",
						name, seed, run.how, len(run.flows), digest(run.flows), pin.flows, pin.digests[seed-1])
				}
			}
		}
	}
}

// TestStreamStartsNonDecreasing pins the contract ScheduleStream
// relies on: arrival timestamps never run backwards.
func TestStreamStartsNonDecreasing(t *testing.T) {
	for name, spec := range streamSpecs() {
		st := spec.Stream(sim.NewRand(2), 1)
		var prev sim.Time
		for {
			f, ok := st.Next()
			if !ok {
				break
			}
			if f.Start < prev {
				t.Fatalf("%s: arrival at %v after %v", name, f.Start, prev)
			}
			prev = f.Start
		}
	}
}

// TestStreamIsLazy verifies the memory contract: pulling a prefix of a
// huge workload must not materialize the rest.
func TestStreamIsLazy(t *testing.T) {
	spec := Spec{
		Pattern: AllToAll{Hosts: HostRange(0, 20)}, Sizes: UniformSize{Min: 10_000, Max: 10_000},
		Load: 0.6, Reference: 10 * netem.Gbps, NumFlows: 1 << 30,
	}
	st := spec.Stream(sim.NewRand(1), 1)
	for i := 0; i < 1000; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatalf("stream dried up after %d of 2^30 flows", i)
		}
	}
}
