package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// Snapshot sections. meta carries the replay signature plus the virtual
// clock; metrics the engine-owned aggregate; stacks every machine's
// controller, injector, sensor-bank and warm-solver state.
const (
	secMeta    = "fleet/meta"
	secMetrics = "fleet/metrics"
	secStacks  = "fleet/stacks"
)

// signature renders the replay-defining configuration. A snapshot only
// restores into an engine with a byte-equal signature: resuming a
// diurnal replay into a failover one (or onto a different grid, fleet
// size, fault mix, ...) is a config error, not a silent divergence.
// Workers is deliberately absent — it is a determinism-invariant
// throughput lever, and a replay may legally resume with another.
func (e *Engine) signature() []byte {
	c := e.cfg
	var enc ckpt.Enc
	enc.Str("fleet-v1")
	enc.U64(c.Seed)
	enc.U32(uint32(c.Stacks))
	enc.U32(uint32(c.Events))
	enc.Str(c.Shape.String())
	enc.F64(c.PeriodMs)
	enc.U32(uint32(c.Phases))
	enc.U32(uint32(c.Policy))
	enc.F64(c.GuardC)
	enc.U32(uint32(c.Grid))
	enc.Str(fmt.Sprint(c.Scheme))
	enc.Str(strings.Join(c.Apps, ","))
	enc.U32(uint32(c.Instructions))
	enc.F64(c.SLOMs)
	enc.F64(c.BaseLatMs)
	f := c.Fault
	for _, v := range []float64{
		f.SensorNoiseSigmaC, f.SensorQuantC, f.SensorStuckRate, f.SensorDropoutRate,
		f.PowerSpikeRate, f.PowerSpikeFactor, f.PowerStuckRate,
		f.SolverBudgetRate, f.SolverDivergeRate,
	} {
		enc.F64(v)
	}
	enc.U32(uint32(f.PowerStuckSteps))
	enc.U32(uint32(f.SolverBudgetIters))
	return enc.Data()
}

// snapshot encodes the engine's checkpoint state: the sections save
// writes and restore reads back.
func (e *Engine) snapshot() *ckpt.Snapshot {
	snap := ckpt.NewSnapshot()

	var meta ckpt.Enc
	meta.Blob(e.signature())
	meta.U64(e.round)
	snap.Put(secMeta, meta.Data())

	var met ckpt.Enc
	e.met.encode(&met)
	snap.Put(secMetrics, met.Data())

	var sts ckpt.Enc
	sts.U32(uint32(len(e.stacks)))
	for _, s := range e.stacks {
		s.ctl.EncodeState(&sts)
		s.inj.EncodeState(&sts)
		s.bank.EncodeState(&sts)
		thermal.EncodeTemperature(&sts, s.warm)
		sts.F64(s.prevProcW)
		sts.F64(s.prevDRAMW)
	}
	snap.Put(secStacks, sts.Data())
	return snap
}

// save writes one snapshot and arms the crash-injection hook.
func (e *Engine) save() error {
	snap := e.snapshot()
	if _, err := e.store.Save(snap); err != nil {
		return err
	}
	e.saves++
	if e.cfg.KillAfterSaves > 0 && e.saves >= e.cfg.KillAfterSaves {
		e.killed = true
	}
	return nil
}

// RestoreError reports a snapshot section the engine could not
// restore: missing, undecodable, shaped for another fleet, or written by
// a different replay configuration.
type RestoreError struct {
	// Section is the snapshot section that failed; Err why.
	Section string
	Err     error
}

func (e *RestoreError) Error() string {
	return fmt.Sprintf("fleet: checkpoint section %s: %v", e.Section, e.Err)
}

func (e *RestoreError) Unwrap() error { return e.Err }

// resume loads the newest intact snapshot into the engine. An empty
// store is not an error: a -resume of a replay that never checkpointed
// simply starts from the beginning, exactly like the sweep engine.
func (e *Engine) resume() error {
	snap, err := e.store.Load()
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return nil
	}
	if err != nil {
		return err
	}
	return e.restore(snap)
}

// restore decodes a snapshot's sections into the engine. Every failure
// is a *RestoreError. A failed restore may leave some stacks restored;
// New discards such an engine.
func (e *Engine) restore(snap *ckpt.Snapshot) error {
	var round uint64
	met := newMetrics()
	for _, sec := range []struct {
		name   string
		decode func(*ckpt.Dec) error
	}{
		{secMeta, func(d *ckpt.Dec) error {
			sig := d.Blob()
			round = d.U64()
			if d.Err() == nil && !bytes.Equal(sig, e.signature()) {
				return errors.New("checkpoint was written by a different replay configuration")
			}
			return d.Err()
		}},
		{secMetrics, met.decode},
		{secStacks, e.decodeStacks},
	} {
		raw, ok := snap.Get(sec.name)
		if !ok {
			return &RestoreError{Section: sec.name, Err: errors.New("section missing")}
		}
		d := ckpt.NewDec(raw)
		err := sec.decode(d)
		if err == nil {
			err = d.Done()
		}
		if err != nil {
			return &RestoreError{Section: sec.name, Err: err}
		}
	}
	e.met = met
	e.round = round
	return nil
}

// decodeStacks reads the fleet/stacks section into the engine's stacks.
func (e *Engine) decodeStacks(d *ckpt.Dec) error {
	if n := int(d.U32()); n != len(e.stacks) || d.Err() != nil {
		return fmt.Errorf("snapshot has %d stacks, engine has %d", n, len(e.stacks))
	}
	layers := len(e.st.Model.Layers)
	cells := e.st.Model.Grid.Rows * e.st.Model.Grid.Cols
	for _, s := range e.stacks {
		if err := s.ctl.DecodeState(d); err != nil {
			return err
		}
		if err := s.inj.DecodeState(d); err != nil {
			return err
		}
		if err := s.bank.DecodeState(d); err != nil {
			return err
		}
		warm, err := thermal.DecodeTemperature(d, layers, cells)
		if err != nil {
			return err
		}
		s.warm = warm
		s.prevProcW = d.F64()
		s.prevDRAMW = d.F64()
	}
	return nil
}
