package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"gristgo/internal/durable"
	"gristgo/internal/tracer"
	"gristgo/internal/vfs"
)

// restartRecord is the serialized model state: the gob payload of a
// durable restart record, whose header rejects a foreign or stale file
// before gob sees it and whose checksum turns silent corruption
// (truncation, bit rot, torn writes) into a precise error instead of a
// half-restored state. Mesh topology is not stored (it is regenerated
// deterministically from the grid level); everything prognostic or
// slowly varying is.
type restartRecord struct {
	GridLevel, NLev int
	TimeSec         float64

	DryMass, ThetaM, U, W, Phi, PhiSurf []float64
	Tracers                             [tracer.NumSpecies][]float64
	TracerMass                          []float64

	Tskin, Land, SSTFix []float64
	PrecipAccum         []float64
	PrecipTime          float64
	StepCount           int
}

// WriteRestart serializes the full model state, so a run can resume
// bit-for-bit (the restart-reproducibility requirement of long climate
// integrations), as one durable restart record.
func (mod *Model) WriteRestart(w io.Writer) error {
	s := mod.Engine.State()
	rec := restartRecord{
		GridLevel: mod.Cfg.GridLevel,
		NLev:      mod.Cfg.NLev,
		TimeSec:   mod.TimeSec,

		DryMass: s.DryMass, ThetaM: s.ThetaM, U: s.U, W: s.W, Phi: s.Phi,
		PhiSurf:    s.PhiSurf,
		TracerMass: mod.Tracers.Mass,

		Tskin: mod.In.Tskin, Land: mod.Land, SSTFix: mod.SSTFix,
		PrecipAccum: mod.PrecipAccum,
		PrecipTime:  mod.precipTime,
		StepCount:   mod.stepCount,
	}
	rec.Tracers = mod.Tracers.Q

	return durable.Encode(w, durable.Restart, func(w io.Writer) error {
		if err := gob.NewEncoder(w).Encode(&rec); err != nil {
			return fmt.Errorf("core: writing restart: %w", err)
		}
		return nil
	})
}

// ReadRestart restores a state written by WriteRestart into this model,
// verifying the header and checksum first. The grid level and layer
// count must match the model's configuration.
func (mod *Model) ReadRestart(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: reading restart: %w", err)
	}
	payload, err := durable.Decode(raw, durable.Restart)
	if err != nil {
		return fmt.Errorf("core: reading restart: %w", err)
	}
	var rec restartRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return fmt.Errorf("core: decoding restart: %w", err)
	}
	if rec.GridLevel != mod.Cfg.GridLevel || rec.NLev != mod.Cfg.NLev {
		return fmt.Errorf("core: restart is G%d/L%d, model is G%d/L%d",
			rec.GridLevel, rec.NLev, mod.Cfg.GridLevel, mod.Cfg.NLev)
	}
	s := mod.Engine.State()
	copy(s.DryMass, rec.DryMass)
	copy(s.ThetaM, rec.ThetaM)
	copy(s.U, rec.U)
	copy(s.W, rec.W)
	copy(s.Phi, rec.Phi)
	copy(s.PhiSurf, rec.PhiSurf)
	copy(mod.Tracers.Mass, rec.TracerMass)
	for t := range rec.Tracers {
		copy(mod.Tracers.Q[t], rec.Tracers[t])
	}
	copy(mod.In.Tskin, rec.Tskin)
	copy(mod.Land, rec.Land)
	copy(mod.In.Land, rec.Land)
	copy(mod.SSTFix, rec.SSTFix)
	copy(mod.PrecipAccum, rec.PrecipAccum)
	mod.precipTime = rec.PrecipTime
	mod.stepCount = rec.StepCount
	mod.TimeSec = rec.TimeSec
	return nil
}

// WriteRestartFile writes the restart record to path atomically, so a
// crash mid-write never leaves a truncated file under the restart name.
func (mod *Model) WriteRestartFile(path string) error {
	return durable.Replace(vfs.OS, path, mod.WriteRestart)
}

// ReadRestartFile restores the model from a restart file written by
// WriteRestartFile (or any WriteRestart stream on disk).
func (mod *Model) ReadRestartFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("core: opening restart: %w", err)
	}
	defer f.Close()
	return mod.ReadRestart(f)
}
