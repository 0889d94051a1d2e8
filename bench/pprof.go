package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed protobuf runtime/pprof
// writes: just the sample, location, function and string_table fields,
// which is all CPU-share attribution needs.

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

var errTruncated = errors.New("pprof: truncated message")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// eachField calls fn for every top-level field of msg.
func eachField(msg []byte, fn func(f pbField) error) error {
	for len(msg) > 0 {
		key, rest, err := readVarint(msg)
		if err != nil {
			return err
		}
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, rest, err = readVarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errTruncated
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = readVarint(rest); err != nil {
				return err
			}
			if uint64(len(rest)) < n {
				return errTruncated
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errTruncated
			}
			rest = rest[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
		msg = rest
	}
	return nil
}

// repeatedVarints appends a repeated integer field, packed or not.
func repeatedVarints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// profSample is one stack with its weight; frames run leaf first, with
// inlined calls expanded.
type profSample struct {
	frames []string
	weight int64
}

// parseProfile decodes a pprof CPU profile into weighted stacks. The
// weight is the sample's last value (CPU nanoseconds).
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var s rawSample
			err := eachField(f.data, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, g)
				case 2:
					s.vals, err = repeatedVarints(s.vals, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line
					return eachField(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{weight: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.frames = append(ps.frames, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// packageLayer maps a repo package to its layer-table row. Repo
// packages not listed (the root façade, check, faults, route, trace,
// core's wiring, and this harness) count as experiments: no reference
// run enables them, so what little they cost is harness cost.
var packageLayer = map[string]string{
	"pase/internal/sim":              "sim",
	"pase/internal/netem":            "netem",
	"pase/internal/pkt":              "netem",
	"pase/internal/transport":        "transport",
	"pase/internal/core/arbitration": "arbitration",
	"pase/internal/core/endhost":     "endhost",
	"pase/internal/topology":         "topology",
	"pase/internal/workload":         "workload",
	"pase/internal/metrics":          "metrics",
	"pase/internal/obs":              "obs",
}

// repoLayer returns the layer of a function of this module, or "" for
// stdlib and runtime functions.
func repoLayer(fn string) string {
	// A symbol is "import/path.Name…": the package path ends at the
	// first dot after the last slash.
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	if l, ok := packageLayer[pkg]; ok {
		return l
	}
	if strings.HasPrefix(pkg, "pase/internal/transport/") {
		return "transport" // protocol sub-packages
	}
	if pkg == "pase" || pkg == "main" || strings.HasPrefix(pkg, "pase/") {
		return "experiments"
	}
	return ""
}

func hasFrame(frames []string, names ...string) bool {
	for _, f := range frames {
		for _, n := range names {
			if f == n {
				return true
			}
		}
	}
	return false
}

// layerOf charges one stack to a layer. A repo leaf pays for itself. A
// stdlib or runtime leaf is garbage collection when a collector frame
// is on the stack (assists included: they are GC work done on the
// allocating goroutine), else allocation under mallocgc, else the cost
// of the nearest repo caller, else unattributed runtime.
func layerOf(frames []string) string {
	if len(frames) == 0 {
		return "runtime.other"
	}
	if l := repoLayer(frames[0]); l != "" {
		return l
	}
	if hasFrame(frames, "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.gcAssistAlloc") {
		return "runtime.gc"
	}
	if hasFrame(frames, "runtime.mallocgc") {
		return "runtime.alloc"
	}
	for _, f := range frames[1:] {
		if l := repoLayer(f); l != "" {
			return l
		}
	}
	return "runtime.other"
}

// cpuShares folds a profile into per-layer shares that sum to 1, and
// reports how many stacks it held.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64, len(layers))
	var total float64
	for _, s := range samples {
		shares[layerOf(s.frames)] += float64(s.weight)
		total += float64(s.weight)
	}
	if total == 0 {
		return nil, 0, errors.New("pprof: profile holds no samples")
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, len(samples), nil
}
