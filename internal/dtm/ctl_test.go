package dtm

import "testing"

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
