package dtm

import (
	"bytes"
	"testing"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/fault"
)

// ctlReadSeq builds a deterministic synthetic reading sequence: site s at
// interval i reads a temperature wandering around the limit, with
// hash-driven dropouts and occasional exact repeats (to exercise the
// stuck-at detector).
func ctlRead(seed uint64, i uint64) func(int) (float64, bool) {
	return func(s int) (float64, bool) {
		si := uint64(s)
		if fault.Unit(seed, 11, si, i) < 0.15 {
			return 0, false // dropout
		}
		if fault.Unit(seed, 12, si, i) < 0.2 {
			return 90, true // a constant: repeats trip the stuck window
		}
		return 80 + 25*fault.Unit(seed, 13, si, i), true
	}
}

// TestSensorCtlResumeContinuesIdentically pins the checkpoint contract:
// running N+M intervals straight equals running N, round-tripping the
// state through the codec into a fresh controller, and running M more.
func TestSensorCtlResumeContinuesIdentically(t *testing.T) {
	const sites, levels, nFirst, nSecond = 5, 12, 40, 40
	limits := make([]float64, sites)
	for s := range limits {
		limits[s] = 100
	}
	for _, policy := range []SensorPolicy{GuardedPolicy, NaivePolicy} {
		full, err := NewSensorCtl(policy, 3, sites, levels)
		if err != nil {
			t.Fatal(err)
		}
		var fullDecisions []Decision
		var fullLevels []int
		for i := 0; i < nFirst+nSecond; i++ {
			fullDecisions = append(fullDecisions, full.Observe(limits, ctlRead(7, uint64(i))))
			fullLevels = append(fullLevels, full.Level)
		}

		half, err := NewSensorCtl(policy, 3, sites, levels)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nFirst; i++ {
			half.Observe(limits, ctlRead(7, uint64(i)))
		}
		var e ckpt.Enc
		half.EncodeState(&e)
		resumed, err := NewSensorCtl(policy, 3, sites, levels)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.DecodeState(ckpt.NewDec(e.Data())); err != nil {
			t.Fatalf("%v: decode: %v", policy, err)
		}
		if resumed.Interval() != uint64(nFirst) || resumed.Level != fullLevels[nFirst-1] {
			t.Fatalf("%v: resumed at interval %d level %d; want %d, %d",
				policy, resumed.Interval(), resumed.Level, nFirst, fullLevels[nFirst-1])
		}
		for i := nFirst; i < nFirst+nSecond; i++ {
			d := resumed.Observe(limits, ctlRead(7, uint64(i)))
			if d != fullDecisions[i] {
				t.Fatalf("%v: interval %d decision diverged: %+v vs %+v", policy, i, d, fullDecisions[i])
			}
			if resumed.Level != fullLevels[i] {
				t.Fatalf("%v: interval %d level %d, want %d", policy, i, resumed.Level, fullLevels[i])
			}
		}
	}
}

// TestSensorCtlDecodeRejectsMismatch checks the decoder refuses state
// from a controller with a different shape.
func TestSensorCtlDecodeRejectsMismatch(t *testing.T) {
	src, err := NewSensorCtl(GuardedPolicy, 3, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	var e ckpt.Enc
	src.EncodeState(&e)

	wrongSites, _ := NewSensorCtl(GuardedPolicy, 3, 5, 12)
	if err := wrongSites.DecodeState(ckpt.NewDec(e.Data())); err == nil {
		t.Fatal("state for 4 sites decoded into a 5-site controller")
	}

	// A level outside the target's DVFS table must be rejected too.
	boosted, _ := NewSensorCtl(NaivePolicy, 3, 4, 12) // starts at level 11
	var e2 ckpt.Enc
	boosted.EncodeState(&e2)
	shallow, _ := NewSensorCtl(NaivePolicy, 3, 4, 4)
	if err := shallow.DecodeState(ckpt.NewDec(e2.Data())); err == nil {
		t.Fatal("level 11 decoded into a 4-level controller")
	}

	// Truncated bytes surface the codec's error.
	trunc, _ := NewSensorCtl(GuardedPolicy, 3, 4, 12)
	if err := trunc.DecodeState(ckpt.NewDec(e.Data()[:5])); err == nil {
		t.Fatal("truncated state accepted")
	}
}

// TestSensorCtlFailedDecodeLeavesStateUnchanged pins the decoder's
// commit-on-success rule: a rejected snapshot — wrong site count, level
// outside the DVFS table, or truncated mid-state — leaves every field of
// the controller as it was.
func TestSensorCtlFailedDecodeLeavesStateUnchanged(t *testing.T) {
	const sites, levels = 4, 12
	limits := []float64{100, 100, 100, 100}
	live, err := NewSensorCtl(GuardedPolicy, 3, sites, levels)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		live.Observe(limits, ctlRead(3, uint64(i)))
	}
	var before ckpt.Enc
	live.EncodeState(&before)

	// A later, different state of the same controller shape: decoding it
	// whole would change the interval, level, last reads and stale counts.
	other, _ := NewSensorCtl(GuardedPolicy, 3, sites, levels)
	for i := 0; i < 23; i++ {
		other.Observe(limits, ctlRead(8, uint64(i)))
	}
	var valid ckpt.Enc
	other.EncodeState(&valid)
	wide, _ := NewSensorCtl(GuardedPolicy, 3, sites+1, levels)
	var wrongSites ckpt.Enc
	wide.EncodeState(&wrongSites)
	deep, _ := NewSensorCtl(NaivePolicy, 3, sites, levels+4) // starts at level 15
	var badLevel ckpt.Enc
	deep.EncodeState(&badLevel)

	for name, data := range map[string][]byte{
		"wrong sites": wrongSites.Data(),
		"bad level":   badLevel.Data(),
		"truncated":   valid.Data()[:len(valid.Data())-3],
	} {
		if err := live.DecodeState(ckpt.NewDec(data)); err == nil {
			t.Fatalf("%s: snapshot accepted", name)
		}
		var after ckpt.Enc
		live.EncodeState(&after)
		if !bytes.Equal(after.Data(), before.Data()) {
			t.Fatalf("%s: rejected decode changed the controller state", name)
		}
	}
}

// TestSensorCtlStartingLevels pins the policy asymmetry: guarded earns
// its frequency from the floor, naive starts at the ceiling.
func TestSensorCtlStartingLevels(t *testing.T) {
	g, err := NewSensorCtl(GuardedPolicy, 3, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if g.Level != 0 {
		t.Fatalf("guarded starts at level %d, want 0", g.Level)
	}
	n, err := NewSensorCtl(NaivePolicy, 3, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if n.Level != 11 {
		t.Fatalf("naive starts at level %d, want 11", n.Level)
	}
	if _, err := NewSensorCtl(GuardedPolicy, 3, 0, 12); err == nil {
		t.Fatal("zero sites accepted")
	}
	if _, err := NewSensorCtl(GuardedPolicy, 3, 2, 0); err == nil {
		t.Fatal("zero levels accepted")
	}
}
