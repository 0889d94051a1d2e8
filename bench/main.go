// Command bench is the repository's benchmark: seven reference
// workloads, five end-to-end metrics and a layer table, all measured
// from outside the simulator through pase.Simulate and the public
// functions of the internal packages. See README.md beside this file.
//
//	go run ./bench                                  # full set, every metric
//	go run ./bench -workload fig9a-pfabric -out x.json
//	go run ./bench -compare a.json b.json
//
// The benchmark driver's form runs one workload and ends with one JSON
// line:
//
//	go run ./bench --workload fig9a-dctcp --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		if err := childMain(spec, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run())
}

func run() int {
	var (
		seed    = flag.Uint64("seed", 1, "workload seed: sample 0 runs SimConfig.Seed = seed, later samples derive theirs from it")
		samples = flag.Int("samples", 0, "timed samples per workload (0 = each workload's own count, scaled by -seconds/10)")
		seconds = flag.Float64("seconds", 10, "measuring budget per workload, in seconds on the reference host")
		names   = flag.String("workload", "", "comma-separated workloads to run (default all)")
		scale   = flag.Float64("scale", 1, "multiplier on flow counts, yardstick and driver batches (the self-test uses 0.01)")
		trace   = flag.Int("trace", 1, "1 adds the traced and drivers children (per-layer metrics); 0 measures end-to-end only")
		out     = flag.String("out", "", "write the full result set to this file")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.StringVar(names, "workloads", "", "alias of -workload")
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		a, err := readSet(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readSet(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if compareSets(os.Stdout, a, b) {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *scale <= 0 || *seconds <= 0 {
		return fail(fmt.Errorf("-scale and -seconds must be positive"))
	}

	ws, err := selectWorkloads(*names)
	if err != nil {
		return fail(err)
	}
	rs, err := runSet(options{
		Seed: *seed, Scale: *scale, Samples: *samples, Seconds: *seconds,
		Workloads: ws, Trace: *trace != 0, Log: os.Stderr,
	})
	if err != nil {
		return fail(err)
	}
	printSet(os.Stdout, rs)
	if *out != "" {
		if err := writeSet(*out, rs); err != nil {
			return fail(err)
		}
	}
	code := 0
	for _, wr := range rs.Workloads {
		if !wr.Correct {
			code = 1
		}
	}
	if len(rs.Workloads) == 1 {
		line, err := driverLine(rs, rs.Workloads[0], *trace != 0)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("\n%s\n", line)
	}
	return code
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func writeSet(path string, rs *resultSet) error {
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
