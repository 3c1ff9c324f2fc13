package fault

import (
	"fmt"

	"github.com/xylem-sim/xylem/internal/ckpt"
)

// Checkpoint support. The injector's draws are stateless hashes, so the
// only mutable state is the draw cursors (how many power steps / solves
// have been consumed) plus the stuck-power replay window; the sensor
// bank adds its interval counter and the per-site stuck-at latches.
// Everything round-trips bit-exactly through the ckpt codec, which is
// what lets a resumed fleet replay draw the identical fault sequence
// from the kill point onward.

// EncodeState appends the injector's mutable state to e. Configuration
// (rates, seed) is not state: the decoder assumes the receiver was
// built with the same Config, which the caller's snapshot signature
// pins.
func (in *Injector) EncodeState(e *ckpt.Enc) {
	e.U64(in.powerStep)
	e.U64(in.solve)
	e.U64(in.stuckUntil)
	e.U32(uint32(len(in.stuckMap)))
	for _, layer := range in.stuckMap {
		e.F64s(layer)
	}
}

// DecodeState reads EncodeState's layout back into an injector built
// with the same Config. The stuck-map layer count is bounded by the
// bytes left before the map is made (each layer costs at least its
// 4-byte length), so a hostile count cannot allocate more than a small
// multiple of the input.
func (in *Injector) DecodeState(d *ckpt.Dec) error {
	powerStep := d.U64()
	solve := d.U64()
	stuckUntil := d.U64()
	nLayers := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if nLayers > d.Remaining()/4 {
		return fmt.Errorf("fault: injector state claims %d stuck-map layers, only %d bytes left", nLayers, d.Remaining())
	}
	var stuck [][]float64
	if nLayers > 0 {
		stuck = make([][]float64, nLayers)
		for i := range stuck {
			stuck[i] = d.F64s()
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	in.powerStep, in.solve, in.stuckUntil, in.stuckMap = powerStep, solve, stuckUntil, stuck
	return nil
}

// EncodeState appends the bank's mutable state to e: the interval
// counter and the per-site stuck-at latches.
func (b *SensorBank) EncodeState(e *ckpt.Enc) {
	e.U64(b.step)
	e.U32(uint32(b.n))
	for s := 0; s < b.n; s++ {
		if b.stuckSet[s] {
			e.U32(1)
		} else {
			e.U32(0)
		}
		e.F64(b.stuckVal[s])
	}
}

// DecodeState reads EncodeState's layout back into a bank of the same
// size over the same injector config.
func (b *SensorBank) DecodeState(d *ckpt.Dec) error {
	step := d.U64()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if n != b.n {
		return fmt.Errorf("fault: sensor bank state has %d sites, bank has %d", n, b.n)
	}
	stuckSet := make([]bool, n)
	stuckVal := make([]float64, n)
	for s := 0; s < n; s++ {
		stuckSet[s] = d.U32() != 0
		stuckVal[s] = d.F64()
	}
	if err := d.Err(); err != nil {
		return err
	}
	b.step = step
	copy(b.stuckSet, stuckSet)
	copy(b.stuckVal, stuckVal)
	return nil
}
