// Command perfbench is the repository's benchmark. One run measures one
// workload — fig7-sweep, serve-closed or fleet-replay — against the Xylem
// packages in process, checks the program's outputs, prints every metric
// by name with its unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is traced and reports the per-layer ones. Run it through run.sh,
// which builds it first; README.md says what each workload exercises and
// how the figures are kept steady.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// outDir holds traced runs' spans and the host-probe history, relative to
// the checkout the benchmark runs in.
const outDir = ".bench_build/perfbench"

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *run) error{
	"fig7-sweep":   runFig7,
	"serve-closed": runServe,
	"fleet-replay": runFleet,
}

func main() { os.Exit(benchMain(os.Args[1:])) }

func benchMain(args []string) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "fig7-sweep, serve-closed or fleet-replay")
	seed := fset.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fset.Float64("seconds", 10, "length of the timed window, in seconds")
	trace := fset.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig7-sweep|serve-closed|fleet-replay --seed N --seconds S --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &run{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		tr:     newTracer(),
		m:      metrics{},
	}
	res, err := r.execute(context.Background(), *name, fn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// run is one benchmark run: its settings, the tracer and speed probe, and
// the metrics and op counts it gathers.
type run struct {
	seed   uint64
	window time.Duration
	traced bool
	tr     *tracer
	probe  probe
	// triad is the measured triad bandwidth in GB/s (traced runs only),
	// the denominator of every _triad_pct.
	triad float64
	m     metrics

	attempted, failed int
	failures          []string
}

// execute runs the workload, prints the host fingerprint, the probe
// verdict and every metric, and returns the result line.
func (r *run) execute(ctx context.Context, name string, fn func(context.Context, *run) error) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	h := fingerprint()
	fmt.Printf("host: %s\n", h)
	if r.traced {
		if err := r.measureTriad(h); err != nil {
			return result{}, err
		}
	}
	r.probe.tick()
	if err := fn(ctx, r); err != nil {
		return result{}, err
	}
	ref := median(r.probe.ms)
	verdict, err := flagProbe(filepath.Join(outDir, "probe.txt"), ref)
	if err != nil {
		return result{}, err
	}
	fmt.Println(verdict)
	if r.traced {
		r.m.set("host.ref_ms", ref, "ms")
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, r.seed))
		if err := r.tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), path)
	}
	return r.report()
}

// measureTriad runs the STREAM triad that every _triad_pct divides by,
// then hands its memory back before the workload starts.
func (r *run) measureTriad(h host) error {
	n := triadElems(h.llc)
	gbps, err := triadGBps(n, triadReps)
	if err != nil {
		return err
	}
	debug.FreeOSMemory()
	r.triad = gbps
	r.m.set("host.triad_gbps", gbps, "GB/s")
	fmt.Printf("triad: 3 arrays of %d MiB each (LLC %d MiB; each array at least 4x the LLC), 1 goroutine, best of %d: %.3f GB/s\n",
		n*8>>20, h.llc>>20, triadReps, gbps)
	return nil
}

// check counts one output check, recording a failure unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// endToEnd records the end-to-end metrics: setups are the seconds each
// set-up took, opsPerS the workload's ops_per_s, secs the op latencies
// in seconds, and tail the percentile of them tail_ms reports.
func (r *run) endToEnd(setups []float64, opsPerS float64, secs []float64, tail float64) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.m.set("setup_s", median(setups), "s")
	r.m.set("ops_per_s", opsPerS, "1/s")
	r.m.set("p50_ms", 1e3*median(secs), "ms")
	r.m.set("tail_ms", 1e3*percentile(secs, tail), "ms")
	r.m.set("peak_rss_mb", rss, "MB")
	fmt.Printf("latencies: %d; tail_ms is p%g; setup_s is the median of set-ups %s s\n",
		len(secs), 100*tail, fmtList(setups))
	return nil
}

// traceOverhead records how much slower the traced ops ran than the
// untraced ops interleaved with them, from each group's ops_per_s.
func (r *run) traceOverhead(untraced, traced float64) {
	r.m.set("obs.trace_overhead_pct", 100*(untraced-traced)/untraced, "%")
}

// b2i is 1 for true: the index of the traced group in a [2] pair.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
