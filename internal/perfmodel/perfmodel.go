// Package perfmodel predicts the simulation speed (SDPD/SYPD) of the
// model on the next-generation Sunway supercomputer for any grid level,
// process count and scheme configuration — the machinery behind the
// paper's weak-scaling (Fig. 10) and strong-scaling (Fig. 11) studies,
// which cannot be run directly without the 34-million-core machine
// (repro substitution; see DESIGN.md).
//
// The model is mechanistic where the paper names a mechanism:
//   - per-element kernel costs and job-server launch overheads follow
//     the sunway cost model;
//   - halo sizes follow the partitioner's surface/volume scaling, and
//     message costs follow the netsim fat tree, with the 16:3
//     oversubscription charged on cross-supernode traffic (the Fig. 10
//     knee at 32,768 CGs);
//   - an LDCache-residency term reproduces the cache-hit-ratio effects
//     the paper cites for the strong-scaling shapes (§4.8);
//   - the ML suite runs at 74-84% of peak FLOPS while RRTMG-style
//     radiation runs near 6% (§4.7), which is why MIX-ML outruns
//     MIX-PHY in Fig. 10.
//
// Free constants are calibrated once against the paper's two anchors:
// 491 SDPD (G11S) and 181 SDPD (G12) at 524,288 processes (§4.8).
package perfmodel

import (
	"math"

	"gristgo/internal/mesh"
	"gristgo/internal/netsim"
	"gristgo/internal/precision"
	"gristgo/internal/sunway"
)

// Scheme is a Table 3 configuration: dycore precision x physics suite.
type Scheme struct {
	Mode precision.Mode
	ML   bool
}

// Label renders the Table 3 name (DP-PHY, DP-ML, MIX-PHY, MIX-ML).
func (s Scheme) Label() string {
	l := s.Mode.String()
	if s.ML {
		return l + "-ML"
	}
	return l + "-PHY"
}

// AllSchemes lists the Table 3 configurations.
func AllSchemes() []Scheme {
	return []Scheme{
		{precision.DP, false},
		{precision.DP, true},
		{precision.Mixed, false},
		{precision.Mixed, true},
	}
}

// RunConfig describes one modeled run.
type RunConfig struct {
	Level  int
	Layers int
	NCG    int // processes; one process per core group (§4.1)
	Scheme Scheme
	Steps  mesh.TimestepConfig // zero value: the G12 step set (weak scaling)
}

// Result is the modeled performance of a run.
type Result struct {
	SDPD      float64
	SYPD      float64
	DaySec    float64 // wall seconds per simulated day
	CompSec   float64
	CommSec   float64
	CommShare float64
	CacheHit  float64 // modeled LDCache hit ratio of the dyn kernels
}

// WithMeasuredCommShare replaces the modeled communication fraction with
// a measured one (e.g. core.MeasuredCommShare from a timed distributed
// run): the modeled compute time is kept and the day length rescaled so
// that communication takes the given share of it. share must be in
// [0, 1); values outside are clamped to the modeled result.
func (r Result) WithMeasuredCommShare(share float64) Result {
	if share < 0 || share >= 1 || r.CompSec <= 0 {
		return r
	}
	day := r.CompSec / (1 - share)
	r.DaySec = day
	r.CommSec = day * share
	r.CommShare = share
	r.SDPD = 86400 / day
	r.SYPD = 86400 / day / 365
	return r
}

// Machine bundles the interconnect and calibrated cost constants.
type Machine struct {
	Net *netsim.Network

	// Kernel structure: parallel regions launched per step of each
	// component (every region pays the job-server spawn cost).
	KernelsPerDyn  int
	KernelsPerTrac int
	KernelsPerPhy  int
	SpawnSec       float64 // per parallel region (launch + join)

	// Per-element costs at perfect cache, FP64 (seconds per cell-level
	// per kernel pass).
	DynElemDP  float64
	TracElemDP float64
	PhyConvCol float64 // conventional non-radiation physics, per cell-level

	MixSpeedup float64 // FP32 work-array speedup of dyn/tracer kernels
	MissWeight float64 // cost multiplier weight of LDCache misses

	// Communication: per-message software latency grows with machine
	// size (runtime/progress overheads at hundreds of thousands of
	// ranks).
	MsgLatBase  float64
	MsgLatSlope float64 // per log2(nodes)
	ExchPerStep int     // halo exchanges per dynamics step (RK3 + implicit)

	MLEff   float64 // achieved peak fraction of the ML suite (§4.7: 74-84%)
	ConvEff float64 // achieved peak fraction of RRTMG-style code (~6%)
}

// NewMachine returns the calibrated machine model.
func NewMachine() *Machine {
	return &Machine{
		Net: netsim.New(),

		KernelsPerDyn:  45,
		KernelsPerTrac: 8,
		KernelsPerPhy:  6,
		SpawnSec:       25e-6,

		DynElemDP:  16.5e-9,
		TracElemDP: 5.0e-9,
		PhyConvCol: 60e-9,

		MixSpeedup: 1.55,
		MissWeight: 14,

		MsgLatBase:  50e-6,
		MsgLatSlope: 12e-6,
		ExchPerStep: 4,

		MLEff:   0.79,
		ConvEff: 0.06,
	}
}

// Working-set tiers for the LDCache residency model: the dynamical
// core's own arrays, and the full model working set.
const (
	dynArrays = 20
	allArrays = 60
)

// MLEffFromThroughput converts a measured tendency-CNN inference
// throughput (columns per second on hardware with the given peak FLOP
// rate) into the achieved-peak fraction the performance model uses as
// MLEff — closing the loop from the infer engine's DrainStats timings
// (columns / elapsed) to the §4.7 efficiency constant.
func MLEffFromThroughput(colsPerSec float64, layers int, hwPeakFlops float64) float64 {
	if colsPerSec <= 0 || hwPeakFlops <= 0 {
		return 0
	}
	return colsPerSec * CNNFlopsPerColumn(layers) / hwPeakFlops
}

// SetMLEfficiency overrides the ML-suite achieved-peak fraction with a
// measured value, clamped to (0, 1]. Values outside the paper's 74-84%
// band are accepted — the point of measurement is to replace the
// constant — but non-positive or >1 fractions are rejected as
// measurement errors and leave the calibrated default in place.
func (m *Machine) SetMLEfficiency(eff float64) {
	if eff <= 0 || eff > 1 {
		return
	}
	m.MLEff = eff
}

// CNNFlopsPerColumn returns the tendency-CNN cost of one column at the
// paper-scale architecture (hidden width 100, kernel 3, 5 ResUnits).
// Exported so measured inference throughput can be converted into an
// achieved peak fraction (see MLEffFromThroughput).
func CNNFlopsPerColumn(layers int) float64 {
	const hidden, kernel = 100.0, 3.0
	perLevel := 2 * (5*hidden*kernel + 10*hidden*hidden*kernel + hidden*2)
	return float64(layers) * perLevel
}

// rrtmgFlopsPerColumn models an RRTMG-class radiation column: 16 bands
// of multi-stream transfer with g-point quadrature over the column.
func rrtmgFlopsPerColumn(layers int) float64 {
	return float64(layers) * 16 * 42000
}

// mlRadFlopsPerColumn: the paper states the ML radiation diagnostic
// needs about twice the FLOPs of RRTMG (§4.7).
func mlRadFlopsPerColumn(layers int) float64 {
	return 2 * rrtmgFlopsPerColumn(layers)
}

// peakFlops is one CG's peak FLOP rate.
const peakFlops = float64(sunway.CPEsPerCG) * 8 * sunway.ClockHz

// haloCells estimates the one-ring halo of a subdomain with the
// partitioner's surface/volume scaling.
func haloCells(cellsPerCG float64) float64 {
	return 3.5*math.Sqrt(cellsPerCG) + 10
}

// cacheHit models the LDCache hit ratio of the dyn kernels. Three
// effects (§4.8):
//   - residency of the dyn working set (tier 1) and of the full model
//     working set (tier 2) per CPE;
//   - a capacity bonus once the full per-CPE share is small enough that
//     several whole arrays sit in the LDCache across kernels ("the
//     LDCache demonstrates the potential to accommodate several
//     arrays");
//   - a penalty proportional to the subdomain boundary fraction, whose
//     irregular indirect accesses miss more as domains shrink ("the
//     drop of cache hit ratio as the number of processes increases").
func (m *Machine) cacheHit(cellsPerCG float64, layers int) float64 {
	perCPE := cellsPerCG * float64(layers) * 8 / float64(sunway.CPEsPerCG)
	ws1 := perCPE * dynArrays
	ws2 := perCPE * allArrays
	res := func(ws float64) float64 {
		if ws <= sunway.LDCacheBytes {
			return 1
		}
		return sunway.LDCacheBytes / ws
	}
	fit3 := 0.0
	if ws2 < sunway.LDCacheBytes/4 {
		fit3 = 1
	}
	bf := haloCells(cellsPerCG) / cellsPerCG
	if bf > 1 {
		bf = 1
	}
	hit := 0.945 + 0.015*res(ws1) + 0.012*res(ws2) + 0.015*fit3 - 0.080*bf
	if hit > 0.998 {
		hit = 0.998
	}
	if hit < 0.5 {
		hit = 0.5
	}
	return hit
}

// msgTime returns the cost of one halo message at the given machine
// load: scale-dependent software latency, oversubscribed cross-supernode
// bandwidth, and congestion on the fabric once traffic leaves the
// supernode.
func (m *Machine) msgTime(bytes float64, nodes int) float64 {
	cross := netsim.CrossFraction(nodes)
	lat := m.MsgLatBase + m.MsgLatSlope*math.Log2(float64(nodes))
	lat *= 1 + 0.5*cross // fabric congestion inflates the software path
	bw := m.Net.LinkBandwidth
	eff := bytes * (1 + cross*(netsim.Oversubscription-1)) / bw
	return lat + eff
}

// Predict evaluates the model for a run configuration.
func (m *Machine) Predict(rc RunConfig) Result {
	if rc.Steps == (mesh.TimestepConfig{}) {
		rc.Steps = mesh.TimestepConfig{Dyn: 4, Trac: 30, Phy: 60, Rad: 180}
	}
	census := mesh.Census(rc.Level)
	cellsPerCG := float64(census.Cells) / float64(rc.NCG)
	layers := rc.Layers
	elems := cellsPerCG * float64(layers)

	hit := m.cacheHit(cellsPerCG, layers)
	cacheFactor := 1 + m.MissWeight*(1-hit)

	// Load imbalance: grows slowly with process count (§4.7) and
	// sharply once subdomains are too small for the partitioner to
	// balance (tens of cells per CG). Stragglers delay both compute and
	// the halo exchanges that wait on them.
	imb := 1.02 + 1.6/math.Sqrt(cellsPerCG)
	if rc.NCG > 128 {
		imb += 0.012 * math.Log2(float64(rc.NCG)/128)
	}

	mixFactor := 1.0
	if rc.Scheme.Mode == precision.Mixed {
		mixFactor = 1 / m.MixSpeedup
	}

	// --- Per-step compute (kernel launches + element work). ---
	dynStep := float64(m.KernelsPerDyn) *
		(m.SpawnSec + elems*m.DynElemDP*mixFactor*cacheFactor) * imb
	tracStep := float64(m.KernelsPerTrac) *
		(m.SpawnSec + elems*6*m.TracElemDP*mixFactor*cacheFactor) * imb

	var phyStep, radStep float64
	if rc.Scheme.ML {
		phyStep = cellsPerCG*CNNFlopsPerColumn(layers)/(m.MLEff*peakFlops)*imb +
			2*m.SpawnSec
		radStep = cellsPerCG*mlRadFlopsPerColumn(layers)/(m.MLEff*peakFlops)*imb +
			m.SpawnSec
	} else {
		phyStep = float64(m.KernelsPerPhy) *
			(m.SpawnSec + elems*m.PhyConvCol*cacheFactor) * imb
		radStep = cellsPerCG*rrtmgFlopsPerColumn(layers)/(m.ConvEff*peakFlops)*imb +
			m.SpawnSec
	}

	// --- Communication. ---
	nodes := rc.NCG / netsim.CGsPerNode
	if nodes < 1 {
		nodes = 1
	}
	halo := haloCells(cellsPerCG)
	word := float64(rc.Scheme.Mode.WordBytes())
	peers := 6.0
	dynBytes := halo * float64(layers) * 5 * word / peers
	tracBytes := halo * float64(layers) * 7 * word / peers

	dynComm := float64(m.ExchPerStep) * peers * m.msgTime(dynBytes, nodes) * imb
	tracComm := peers * m.msgTime(tracBytes, nodes) * imb
	phyComm := peers * m.msgTime(dynBytes, nodes) * imb

	// --- Steps per simulated day. ---
	nDyn := 86400 / rc.Steps.Dyn
	nTrac := 86400 / rc.Steps.Trac
	nPhy := 86400 / rc.Steps.Phy
	nRad := 86400 / rc.Steps.Rad

	comp := nDyn*dynStep + nTrac*tracStep + nPhy*phyStep + nRad*radStep
	comm := nDyn*dynComm + nTrac*tracComm + nPhy*phyComm

	day := comp + comm
	return Result{
		SDPD:      86400 / day,
		SYPD:      86400 / day / 365,
		DaySec:    day,
		CompSec:   comp,
		CommSec:   comm,
		CommShare: comm / day,
		CacheHit:  hit,
	}
}

// WeakScalingPoint returns the grid level that keeps ~320 cells per CG
// at the given process count (Fig. 10's setup: quadruple the processes
// per grid level).
func WeakScalingPoint(ncg int) (level int) {
	level = 6
	for n := 128; n < ncg; n *= 4 {
		level++
	}
	return level
}

// ScalePoint is one point of a scaling curve.
type ScalePoint struct {
	NCG    int
	Level  int
	R      Result
	EffPct float64
}

// WeakScaling evaluates Fig. 10: process counts 128..524288 (x4) with
// the matching grid per point, all at the G12 timesteps, for the given
// scheme. Efficiency follows the paper's Eq. (1): SDPD(N)/SDPD(128).
func (m *Machine) WeakScaling(s Scheme) []ScalePoint {
	var out []ScalePoint
	var base float64
	for ncg := 128; ncg <= 524288; ncg *= 4 {
		lvl := WeakScalingPoint(ncg)
		r := m.Predict(RunConfig{Level: lvl, Layers: 30, NCG: ncg, Scheme: s})
		if base == 0 {
			base = r.SDPD
		}
		out = append(out, ScalePoint{ncg, lvl, r, 100 * r.SDPD / base})
	}
	return out
}

// StrongScaling evaluates Fig. 11 for a grid over process counts
// 32768..524288 (x2). Efficiency follows the paper's Eq. (2):
// (SDPD(N)/N) / (SDPD(32768)/32768).
func (m *Machine) StrongScaling(level, layers int, steps mesh.TimestepConfig, s Scheme) []ScalePoint {
	var out []ScalePoint
	var base float64
	const baseN = 32768
	for ncg := baseN; ncg <= 524288; ncg *= 2 {
		r := m.Predict(RunConfig{Level: level, Layers: layers, NCG: ncg, Scheme: s, Steps: steps})
		if ncg == baseN {
			base = r.SDPD / float64(baseN)
		}
		out = append(out, ScalePoint{ncg, level, r, 100 * (r.SDPD / float64(ncg)) / base})
	}
	return out
}

// G11SSteps returns the Table 2 strong-scaling timesteps of G11S.
func G11SSteps() mesh.TimestepConfig {
	return mesh.TimestepConfig{Dyn: 8, Trac: 60, Phy: 120, Rad: 360}
}

// G12Steps returns the Table 2 timesteps of G12 (shared by all weak-
// scaling points).
func G12Steps() mesh.TimestepConfig {
	return mesh.TimestepConfig{Dyn: 4, Trac: 30, Phy: 60, Rad: 180}
}

// FullMachineCGs is the largest power-of-two CG count below the full
// next-generation Sunway system (107,520 nodes x 6 CGs = 645,120; the
// paper uses 524,288 = 2^19).
const FullMachineCGs = 524288

// ProjectOneSYPD reports the uniform speedup of the software path —
// per-element kernel cost, job-server launches, and per-message software
// latency — at which the G12 MIX-ML configuration reaches one simulated
// year per day on the full machine (the paper's "touching the bar of one
// SYPD"). Faster arithmetic alone cannot get there: at 524,288 processes
// the step time is floored by launch and message overheads, so the
// projection scales all three together. Returns the required factor
// (>1 means faster than today).
func (m *Machine) ProjectOneSYPD() float64 {
	target := 365.0 // SDPD
	rc := RunConfig{Level: 12, Layers: 30, NCG: FullMachineCGs,
		Scheme: Scheme{Mode: precision.Mixed, ML: true}, Steps: G12Steps()}
	baseDyn, baseTrac := m.DynElemDP, m.TracElemDP
	baseSpawn, baseLat, baseSlope := m.SpawnSec, m.MsgLatBase, m.MsgLatSlope
	defer func() {
		m.DynElemDP, m.TracElemDP = baseDyn, baseTrac
		m.SpawnSec, m.MsgLatBase, m.MsgLatSlope = baseSpawn, baseLat, baseSlope
	}()
	lo, hi := 1e-3, 1e3
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		m.DynElemDP, m.TracElemDP = baseDyn/mid, baseTrac/mid
		m.SpawnSec, m.MsgLatBase, m.MsgLatSlope = baseSpawn/mid, baseLat/mid, baseSlope/mid
		if m.Predict(rc).SDPD < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
