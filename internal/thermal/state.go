package thermal

import (
	"fmt"

	"github.com/xylem-sim/xylem/internal/ckpt"
)

// Checkpointable solver warm state. A resumable sweep must reproduce,
// bit for bit, the warm-start field each interrupted frequency ladder
// would have carried into its next solve — CG iterates depend on the
// seed, so "close" is not good enough for byte-identical tables. The
// encoding is therefore raw IEEE-754 bits through the ckpt codec, and
// decoding validates the field's shape before any of it is used.

// EncodeTemperature appends t to e: layer count, then each layer as a
// length-prefixed raw-bits float64 slice. A nil Temperature encodes as
// layer count 0 (and decodes back to nil), so optional warm-start
// fields round trip without a presence flag.
func EncodeTemperature(e *ckpt.Enc, t Temperature) {
	e.U32(uint32(len(t)))
	for _, layer := range t {
		e.F64s(layer)
	}
}

// DecodeTemperature reads EncodeTemperature's layout back. layers and
// cells, when non-zero, pin the expected shape — a checkpoint written
// for a different stack spec or grid fails here with a typed error
// instead of seeding solves with a mis-shaped field. The layer count is
// bounded by the bytes left before the field is made (each layer costs
// at least its 4-byte length), so a hostile count cannot allocate more
// than a small multiple of the input.
func DecodeTemperature(d *ckpt.Dec, layers, cells int) (Temperature, error) {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if layers > 0 && n != layers {
		return nil, fmt.Errorf("thermal: checkpointed field has %d layers, stack has %d", n, layers)
	}
	if n > d.Remaining()/4 {
		return nil, fmt.Errorf("thermal: checkpointed field claims %d layers, only %d bytes left", n, d.Remaining())
	}
	t := make(Temperature, n)
	for i := range t {
		t[i] = d.F64s()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if cells > 0 && len(t[i]) != cells {
			return nil, fmt.Errorf("thermal: checkpointed layer %d has %d cells, grid has %d", i, len(t[i]), cells)
		}
	}
	return t, nil
}
