package fault

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/xylem-sim/xylem/internal/ckpt"
)

// faultyCfg turns on every fault class at rates high enough to fire in
// a short run.
func faultyCfg(seed uint64) Config {
	return Config{
		Seed:              seed,
		SensorNoiseSigmaC: 0.5,
		SensorQuantC:      0.25,
		SensorStuckRate:   0.2,
		SensorDropoutRate: 0.2,
		PowerSpikeRate:    0.2,
		PowerStuckRate:    0.15,
		PowerStuckSteps:   2,
		SolverBudgetRate:  0.2,
		SolverDivergeRate: 0.2,
	}
}

func testMap(step int) [][]float64 {
	return [][]float64{
		{1 + float64(step), 2, 3, 4},
		{5, 6, 7, 8 + float64(step)},
	}
}

// TestInjectorResumeContinuesIdentically pins the checkpoint contract:
// an injector that ran N steps, round-tripped its state, and ran M more
// produces the exact per-step perturbations and solve faults of an
// uninterrupted N+M run — including mid-stuck-window kills (the frozen
// map must survive the snapshot).
func TestInjectorResumeContinuesIdentically(t *testing.T) {
	const nTotal = 60
	for kill := 1; kill < 12; kill++ {
		full := New(faultyCfg(3))
		type stepOut struct {
			pm      [][]float64
			maxIter int
			errStr  string
		}
		var want []stepOut
		for i := 0; i < nTotal; i++ {
			pm := full.PerturbPower(testMap(i))
			mi, err := full.SolveFault()
			s := stepOut{pm: deepCopy(pm), maxIter: mi}
			if err != nil {
				s.errStr = err.Error()
			}
			want = append(want, s)
		}

		first := New(faultyCfg(3))
		for i := 0; i < kill; i++ {
			first.PerturbPower(testMap(i))
			first.SolveFault()
		}
		var e ckpt.Enc
		first.EncodeState(&e)
		resumed := New(faultyCfg(3))
		if err := resumed.DecodeState(ckpt.NewDec(e.Data())); err != nil {
			t.Fatalf("kill %d: decode: %v", kill, err)
		}
		for i := kill; i < nTotal; i++ {
			pm := resumed.PerturbPower(testMap(i))
			mi, err := resumed.SolveFault()
			for li := range pm {
				for c := range pm[li] {
					if pm[li][c] != want[i].pm[li][c] {
						t.Fatalf("kill %d step %d: power map diverged at [%d][%d]: %v vs %v",
							kill, i, li, c, pm[li][c], want[i].pm[li][c])
					}
				}
			}
			gotErr := ""
			if err != nil {
				gotErr = err.Error()
			}
			if mi != want[i].maxIter || gotErr != want[i].errStr {
				t.Fatalf("kill %d step %d: solve fault (%d, %q) vs (%d, %q)",
					kill, i, mi, gotErr, want[i].maxIter, want[i].errStr)
			}
		}
	}
}

// TestSensorBankResumeContinuesIdentically does the same for the bank:
// reads after a round-trip equal reads of an uninterrupted bank,
// stuck-at latches included.
func TestSensorBankResumeContinuesIdentically(t *testing.T) {
	const sites, nTotal, kill = 6, 50, 17
	temp := func(s int, i int) float64 { return 70 + float64(s) + 0.25*float64(i%8) }

	full := NewSensorBank(New(faultyCfg(9)), sites)
	type read struct {
		v  float64
		ok bool
	}
	var want [][]read
	for i := 0; i < nTotal; i++ {
		full.Advance()
		row := make([]read, sites)
		for s := 0; s < sites; s++ {
			v, ok := full.Read(s, temp(s, i))
			row[s] = read{v, ok}
		}
		want = append(want, row)
	}

	first := NewSensorBank(New(faultyCfg(9)), sites)
	for i := 0; i < kill; i++ {
		first.Advance()
		for s := 0; s < sites; s++ {
			first.Read(s, temp(s, i))
		}
	}
	var e ckpt.Enc
	first.EncodeState(&e)
	resumed := NewSensorBank(New(faultyCfg(9)), sites)
	if err := resumed.DecodeState(ckpt.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	if resumed.Interval() != kill {
		t.Fatalf("resumed at interval %d, want %d", resumed.Interval(), kill)
	}
	for i := kill; i < nTotal; i++ {
		resumed.Advance()
		for s := 0; s < sites; s++ {
			v, ok := resumed.Read(s, temp(s, i))
			if v != want[i][s].v || ok != want[i][s].ok {
				t.Fatalf("step %d site %d: read (%v, %v) vs (%v, %v)",
					i, s, v, ok, want[i][s].v, want[i][s].ok)
			}
		}
	}
}

// TestSensorBankDecodeRejectsMismatch checks shape validation and
// truncation handling.
func TestSensorBankDecodeRejectsMismatch(t *testing.T) {
	src := NewSensorBank(New(faultyCfg(1)), 4)
	var e ckpt.Enc
	src.EncodeState(&e)
	if err := NewSensorBank(New(faultyCfg(1)), 5).DecodeState(ckpt.NewDec(e.Data())); err == nil {
		t.Fatal("4-site state decoded into a 5-site bank")
	}
	if err := NewSensorBank(New(faultyCfg(1)), 4).DecodeState(ckpt.NewDec(e.Data()[:3])); err == nil {
		t.Fatal("truncated bank state accepted")
	}
	inj := New(faultyCfg(1))
	if err := inj.DecodeState(ckpt.NewDec([]byte{1, 2})); err == nil {
		t.Fatal("truncated injector state accepted")
	}
}

// FuzzInjectorDecodeState feeds arbitrary bytes to the injector's
// checkpoint decoder. It must never panic, must allocate in proportion
// to its input (a hostile stuck-map layer count is rejected before the
// map is made), and an accepted state must re-encode to exactly the
// bytes it consumed.
func FuzzInjectorDecodeState(f *testing.F) {
	in := New(faultyCfg(3))
	for i := 0; in.stuckMap == nil; i++ {
		in.PerturbPower(testMap(i))
		in.SolveFault()
	}
	var e ckpt.Enc
	in.EncodeState(&e)
	f.Add(e.Data())
	f.Fuzz(func(t *testing.T, data []byte) {
		d := ckpt.NewDec(data)
		got := New(faultyCfg(3))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := got.DecodeState(d)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		var re ckpt.Enc
		got.EncodeState(&re)
		if used := data[:len(data)-d.Remaining()]; !bytes.Equal(re.Data(), used) {
			t.Fatalf("state re-encodes to %x, decoded from %x", re.Data(), used)
		}
	})
}
