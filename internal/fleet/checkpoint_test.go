package fleet

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"github.com/xylem-sim/xylem/internal/ckpt"
)

// fuzzConfig is a three-stack replay: small enough that a whole
// snapshot is a practical fuzz input, with warm fields, stuck-sensor
// latches and solver faults all in play.
func fuzzConfig() Config {
	cfg := testConfig()
	cfg.Stacks = 3
	cfg.Events = 12
	cfg.Fault.SensorStuckRate = 0.3
	return cfg
}

// FuzzFleetRestore feeds mutated fleet/meta, fleet/metrics and
// fleet/stacks sections through Engine.restore, and with it the
// SensorCtl, SensorBank, Injector, warm-field and fleet-metrics
// decoders. A restore must never panic, must reject with a
// *RestoreError, must allocate in proportion to its input, and a state
// it accepts must re-encode to exactly the sections it consumed.
func FuzzFleetRestore(f *testing.F) {
	cfg := fuzzConfig()
	cfg.Checkpoint = f.TempDir()
	cfg.CkptEveryRounds = 1
	cfg.KillAfterSaves = 3
	src, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := src.Run(context.Background()); !errors.Is(err, ErrKilled) {
		f.Fatalf("seed replay: got %v, want ErrKilled", err)
	}
	snap, err := src.store.Load()
	if err != nil {
		f.Fatal(err)
	}
	seed := make([][]byte, 3)
	for i, name := range []string{secMeta, secMetrics, secStacks} {
		seed[i], _ = snap.Get(name)
	}
	f.Add(seed[0], seed[1], seed[2])

	e, err := New(fuzzConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, meta, met, sts []byte) {
		in := ckpt.NewSnapshot()
		in.Put(secMeta, meta)
		in.Put(secMetrics, met)
		in.Put(secStacks, sts)
		n := uint64(len(meta) + len(met) + len(sts))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := e.restore(in)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*n+64<<10 {
			t.Fatalf("restoring %d bytes allocated %d bytes", n, alloc)
		}
		if err != nil {
			var re *RestoreError
			if !errors.As(err, &re) {
				t.Fatalf("restore failed with %T, want *RestoreError: %v", err, err)
			}
			return
		}
		out := e.snapshot()
		for name, want := range map[string][]byte{secMeta: meta, secMetrics: met, secStacks: sts} {
			if got, _ := out.Get(name); !bytes.Equal(got, want) {
				t.Fatalf("section %s re-encodes to %d bytes differing from the %d restored", name, len(got), len(want))
			}
		}
	})
}
