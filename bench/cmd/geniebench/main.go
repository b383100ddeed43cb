// Command geniebench is the repository's page-load benchmark.
//
// One run, as the benchmark driver invokes it (the last line of standard
// output is the result object):
//
//	geniebench --workload pinax_default --seed 7 --seconds 10 --trace 0
//
// A suite — every workload, -reps end-to-end repetitions each plus one
// traced pass — written to one result file, and a comparison of two such
// files against the bounds in BENCHMARK.json:
//
//	geniebench -seed 42 -reps 5 -out result.json
//	geniebench -compare a.json b.json
//
// It exits 1 when an audit finds a violation, a page fails, or a comparison
// finds a metric worse than its bound, and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"

	"cachegenie/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Int64("seed", 42, "seed the page streams are generated from")
		secs     = flag.Float64("seconds", bench.RunSeconds, "scales the measured work: the frozen session counts last about run_seconds")
		trace    = flag.Int("trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
		reps     = flag.Int("reps", 1, "end-to-end repetitions per workload, on seeds seed, seed+1, ...")
		out      = flag.String("out", "", "write every result of the suite to this file")
		traceOut = flag.String("trace-out", "", "write the traced pass's span list to this file (one workload)")
		compare  = flag.Bool("compare", false, "compare two result files: geniebench -compare a.json b.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables")
	)
	flag.Parse()

	switch {
	case *manifest:
		return printJSON(bench.CurrentManifest(), "  ")
	case *compare:
		return runCompare(flag.Args())
	}
	if flag.NArg() > 0 || *reps < 1 || *secs <= 0 || *trace < -1 || *trace > 1 {
		flag.Usage()
		return 2
	}

	workloads := bench.Workloads
	if *workload != "" {
		w, ok := bench.WorkloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "geniebench: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []bench.Workload{w}
	}
	tmp, err := bench.TmpDir()
	if err != nil {
		return fail(err)
	}
	var spans *os.File
	if *traceOut != "" {
		if len(workloads) != 1 || *trace == 0 {
			fmt.Fprintln(os.Stderr, "geniebench: -trace-out needs one -workload and a traced pass")
			return 2
		}
		if spans, err = os.Create(*traceOut); err != nil {
			return fail(err)
		}
		defer spans.Close()
	}

	var file bench.File
	if *out != "" {
		file.Env = bench.CurrentEnv(gitSHA(), kernel())
	}
	var last bench.Result
	bad := false
	record := func(w bench.Workload, pass string, res bench.Result) {
		report(w.Name, pass, res)
		last = res
		bad = bad || !res.Correct || res.Failed > 0
	}
	for _, w := range workloads {
		runs := bench.WorkloadRuns{Workload: w.Name, Seed: *seed, Seconds: *secs}
		opts := bench.Options{Workload: w, Seconds: *secs, TmpDir: tmp}
		if *trace != 1 {
			for i := 0; i < *reps; i++ {
				opts.Seed = *seed + int64(i)
				res, err := bench.RunEndToEnd(opts)
				if err != nil {
					return fail(fmt.Errorf("%s: %w", w.Name, err))
				}
				record(w, fmt.Sprintf("end to end, seed %d", opts.Seed), res)
				runs.EndToEnd = append(runs.EndToEnd, res)
			}
			if *reps > 1 {
				reportSpread(runs)
			}
		}
		if *trace != 0 {
			opts.Seed = *seed
			if spans != nil { // a nil *os.File must not become a non-nil io.Writer
				opts.TraceOut = spans
			}
			res, err := bench.RunTraced(opts)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.Name, err))
			}
			record(w, "traced pass, per layer", res)
			runs.PerLayer = &res
		}
		file.Workloads = append(file.Workloads, runs)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if len(workloads) == 1 && *reps == 1 && *trace >= 0 {
		// The contract line: one run, one JSON object, last on stdout.
		if code := printJSON(last, ""); code != 0 {
			return code
		}
	}
	if bad {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "geniebench:", err)
	return 2
}

// printJSON prints v on one line, or indented when indent is set.
func printJSON(v any, indent string) int {
	data, err := json.Marshal(v)
	if indent != "" {
		data, err = json.MarshalIndent(v, "", indent)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(data))
	return 0
}

// report prints every metric of one run by name, with its unit.
func report(workload, pass string, r bench.Result) {
	fmt.Printf("== %s: %s: %d pages attempted, %d failed, correct=%v\n",
		workload, pass, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, note := range r.Notes {
		fmt.Println("  !", note)
	}
}

// reportSpread prints, for each end-to-end metric, the median over the
// repetitions and the quartile spread the driver checks against the bound.
func reportSpread(w bench.WorkloadRuns) {
	fmt.Printf("== %s: spread over %d repetitions\n", w.Workload, len(w.EndToEnd))
	for _, d := range bench.EndToEnd {
		vals := w.Values(d.Name)
		s := bench.Spread(vals)
		note := ""
		if s > d.Bound/3 {
			note = "  (above a third of the bound)"
		}
		fmt.Printf("%-40s median %14.4f  iqr/median %.4f  bound %.2f%s\n",
			d.Name, bench.Median(vals), s, d.Bound, note)
	}
}

// manifestPath is where -compare finds the bounds, relative to the checkout
// root every command here runs from.
const manifestPath = "BENCHMARK.json"

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: geniebench -compare a.json b.json")
		return 2
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return fail(err)
	}
	var m bench.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fail(fmt.Errorf("%s: %w", manifestPath, err))
	}
	a, err := bench.ReadFile(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := bench.ReadFile(args[1])
	if err != nil {
		return fail(err)
	}
	if bench.Compare(os.Stdout, a, b, m.EndToEnd) {
		return 1
	}
	return 0
}

// gitSHA is the checkout's commit, or "unknown" outside a git repository
// (the driver's checkout is not one).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func kernel() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}
