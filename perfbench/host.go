package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the machine fingerprint every run prints.
type host struct {
	nproc, gomaxprocs int
	cpu, goVersion    string
	// llc is the last-level cache size in bytes, 0 when sysfs has none.
	llc int64
}

func fingerprint() host {
	return host{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		cpu:        cpuModel(),
		goVersion:  runtime.Version(),
		llc:        llcBytes(),
	}
}

func (h host) String() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, cpu %q, %s, LLC %d MiB",
		h.nproc, h.gomaxprocs, h.cpu, h.goVersion, h.llc>>20)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes returns the size of the highest cache level cpu0 reports in
// sysfs.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	level, size := 0, int64(0)
	for _, d := range dirs {
		lb, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil {
			continue
		}
		sb, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		l, err := strconv.Atoi(strings.TrimSpace(string(lb)))
		if err != nil {
			continue
		}
		s, err := parseSize(strings.TrimSpace(string(sb)))
		if err != nil {
			continue
		}
		if l > level || l == level && s > size {
			level, size = l, s
		}
	}
	return size
}

// parseSize parses a sysfs cache size such as "48K" or "300M".
func parseSize(s string) (int64, error) {
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}} {
		if strings.HasSuffix(s, u.suffix) {
			s, mult = strings.TrimSuffix(s, u.suffix), u.mult
		}
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return v * mult, err
}

// peakRSSMB returns the process's peak resident set (ru_maxrss, the
// kernel's VmHWM) in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}

// refIters sizes the speed probe's loop at a few milliseconds.
const refIters = 1 << 22

// refSink keeps the probe loop's result live.
var refSink uint64

// refLoop times a fixed integer-only loop (xorshift) that touches no
// memory and returns its milliseconds: how fast the host runs plain Go
// right now.
func refLoop() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return float64(time.Since(t0)) / 1e6
}

// probeEvery spaces the speed probe's samples.
const probeEvery = time.Second

// probe samples refLoop between ops, at most once per probeEvery, so a
// run records how fast the host ran while it measured. The probe never
// rescales any metric.
type probe struct {
	ms   []float64
	next time.Time
}

// tick takes a sample if probeEvery has passed since the last one.
func (p *probe) tick() {
	if time.Now().After(p.next) {
		p.ms = append(p.ms, refLoop())
		p.next = time.Now().Add(probeEvery)
	}
}

// probeDepart is how far a run's probe median may sit from the run set's
// median before the run is flagged.
const probeDepart = 0.2

// flagProbe compares a run's probe median with those of the earlier runs
// recorded at path (the run set of this checkout), appends it there, and
// returns a one-line verdict.
func flagProbe(path string, ms float64) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "", err
	}
	var hist []float64
	for _, f := range strings.Fields(string(b)) {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			hist = append(hist, v)
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	_, err = fmt.Fprintf(f, "%g\n", ms)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	if len(hist) < 3 {
		return fmt.Sprintf("host.ref_ms %.3f ms; too few earlier runs in this checkout to compare", ms), nil
	}
	set := median(hist)
	dev := ms/set - 1
	verdict := "within the run set"
	if math.Abs(dev) > probeDepart {
		verdict = "FLAGGED: the host ran at another speed than in the run set"
	}
	return fmt.Sprintf("host.ref_ms %.3f ms vs run-set median %.3f ms over %d runs (%+.0f%%): %s",
		ms, set, len(hist), 100*dev, verdict), nil
}

// triadReps is how many triad passes a traced run times; the best counts.
const triadReps = 5

// triadElems sizes each triad array at four times the last-level cache
// (McCalpin's rule, so the arrays stream from memory), and at least
// 64 MiB when sysfs reports no cache.
func triadElems(llc int64) int { return int(max(4*llc, 64<<20) / 8) }

// triadGBps runs McCalpin's STREAM triad a[i] = b[i] + q·c[i] in plain Go
// on one goroutine — the kernels it is the denominator for run on one
// worker — over three n-element float64 arrays, and returns the best of
// reps passes in GB/s, counting 24 bytes per element (two loads and one
// store; write-allocate traffic uncounted, as in STREAM).
func triadGBps(n, reps int) (float64, error) {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	b, c = b[:len(a)], c[:len(a)]
	best := math.Inf(1)
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		best = min(best, time.Since(t0).Seconds())
	}
	if a[0] != 7 || a[n-1] != 7 {
		return 0, fmt.Errorf("triad computed %g, want 7", a[n-1])
	}
	return 24 * float64(n) / best / 1e9, nil
}
