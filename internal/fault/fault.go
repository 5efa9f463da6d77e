// Package fault provides seeded, deterministic fault injection for the
// resilience layer: a Plan decorates a comm.World (message drop, delay,
// FP32 bit-flip corruption) and the distributed runner (rank death at a
// chosen step), so every failure mode a chaos test exercises is exactly
// reproducible from (seed, profile).
//
// Determinism is the load-bearing property. Verdicts are pure functions
// of the seed and the message coordinates (from, to, tag, attempt), not
// of scheduling order, so two runs with the same plan inject the same
// faults — which is what lets the recovery tests assert bitwise-
// identical final states against an uninjected run.
//
// The fault model targets the halo data plane: only messages with
// non-negative tags (the exchanger's per-round tags start at 100) are
// dropped, delayed or corrupted. Control-plane collectives use negative
// tags and are exempt — at scale those travel a reliable service
// network, and in-process it keeps a lossy profile from wedging the
// recovery machinery itself.
package fault

import (
	"fmt"
	"math"
	"sync"
	"time"

	"gristgo/internal/detrand"
)

// Profile declares a fault mix. The zero value injects nothing.
type Profile struct {
	Name string

	// Message faults, applied per delivery attempt on halo-plane tags.
	DropProb  float64       // probability an attempt is dropped (retried with backoff)
	DelayProb float64       // probability an attempt is delayed
	MaxDelay  time.Duration // injected delays are uniform in (0, MaxDelay]

	// Payload corruption: with probability FlipProb per message (first
	// attempt only), flip FlipBit of 1 + words/64 FP32 words chosen
	// deterministically. MaxFlips bounds how many messages the plan may
	// corrupt over its lifetime (0 = unlimited); fired flips stay spent
	// across rollback legs so a transient corruption is not replayed.
	FlipProb float64
	MaxFlips int
	FlipBit  uint // bit within each 32-bit word; 0 means default (30, exponent MSB)

	// Rank death: rank KillRank exits at the top of step KillStep
	// (0-based), once. Disabled when KillRank < 0 or when both fields
	// are zero (so the zero-value Profile injects nothing; killing rank
	// 0 at step 0 is not expressible, kill it at step 1 instead).
	KillRank int
	KillStep int
}

// Profiles names the built-in profiles for error messages.
func Profiles() string {
	return "off, drop, delay, bitflip, rankdeath, shrinkgrow, chaos, mlnan"
}

// ParseProfile resolves a named fault profile. The "mlnan" profile is
// recognized but injects nothing at the transport level — drivers wire
// it to the ML-physics output hook (see MLOutputFault).
func ParseProfile(name string) (Profile, error) {
	p := Profile{Name: name, KillRank: -1}
	switch name {
	case "", "off", "none", "mlnan":
	case "drop":
		p.DropProb = 0.2
	case "delay":
		p.DelayProb = 0.3
		p.MaxDelay = 2 * time.Millisecond
	case "bitflip":
		p.FlipProb = 0.05
		p.MaxFlips = 1
	case "rankdeath":
		p.KillRank = 1
		p.KillStep = 4
	case "shrinkgrow":
		// The elastic membership scenario: node 1 dies at step 4; the
		// driver shrinks to the survivors and later re-absorbs the node
		// (see core.Run under OnDeath: Shrink and core's
		// TestElasticShrinkGrowBitwiseDP). The kill addresses a stable
		// NODE id, so the re-added node is not re-killed — the Plan's
		// one-shot kill stays spent anyway.
		p.KillRank = 1
		p.KillStep = 4
	case "chaos":
		p.DropProb = 0.1
		p.DelayProb = 0.2
		p.MaxDelay = time.Millisecond
	default:
		return Profile{}, fmt.Errorf("fault: unknown profile %q (known: %s)", name, Profiles())
	}
	return p, nil
}

// Event records one injected fault.
type Event struct {
	Kind    string `json:"kind"` // "drop", "delay", "bitflip", "kill"
	From    int    `json:"from"`
	To      int    `json:"to"`
	Tag     int    `json:"tag"`
	Attempt int    `json:"attempt,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// maxEvents bounds the event log; further injections are counted but
// not individually recorded.
const maxEvents = 1024

// Plan is a seeded instance of a Profile. It implements comm.Injector
// (message faults) and core.StepGate (rank death). One-shot faults —
// the rank kill, and bit-flips once MaxFlips is reached — stay spent
// for the Plan's lifetime, so a recovery leg replaying the same steps
// does not re-suffer the transient it is recovering from.
type Plan struct {
	Seed int64
	Prof Profile

	mu       sync.Mutex
	flips    int
	killed   bool
	events   []Event
	overflow int // events beyond maxEvents
}

// NewPlan creates a fault plan for the given seed and profile.
func NewPlan(seed int64, p Profile) *Plan {
	if p.FlipBit == 0 {
		p.FlipBit = 30 // FP32 exponent MSB: flips are numerically loud
	}
	return &Plan{Seed: seed, Prof: p}
}

// mix is one splitmix64 step (detrand.Step) — the per-coordinate hash
// behind every verdict.
func mix(x uint64) uint64 { return detrand.Step(x) }

// hash folds the message coordinates and a purpose salt into one
// deterministic 64-bit value via detrand.Fold, so the derivation chain
// is the sanctioned splitmix64 stream and nothing else.
func (p *Plan) hash(from, to, tag, attempt, salt int) uint64 {
	x := detrand.Step(uint64(p.Seed) ^ 0x6772697374666c74) // "gristflt"
	x = detrand.Fold(x, uint64(int64(from)))
	x = detrand.Fold(x, uint64(int64(to)))
	x = detrand.Fold(x, uint64(int64(tag)))
	x = detrand.Fold(x, uint64(int64(attempt)))
	return detrand.Fold(x, uint64(int64(salt)))
}

// unit maps a hash to [0, 1).
func unit(x uint64) float64 { return detrand.Unit(x) }

// Verdict salts, one per fault kind so the draws are independent.
const (
	saltDrop = iota + 1
	saltDelay
	saltDelayLen
	saltFlip
	saltFlipWord
)

// OnSend implements comm.Injector: returns the (deterministic) drop and
// delay verdicts for one delivery attempt and applies payload
// corruption in place. Negative tags (control-plane collectives) pass
// untouched.
func (p *Plan) OnSend(from, to, tag, attempt int, data []byte) (drop bool, delay time.Duration) {
	if tag < 0 {
		return false, 0
	}
	pr := &p.Prof
	if pr.DelayProb > 0 && unit(p.hash(from, to, tag, attempt, saltDelay)) < pr.DelayProb {
		frac := unit(p.hash(from, to, tag, attempt, saltDelayLen))
		delay = time.Duration(frac * float64(pr.MaxDelay))
		if delay <= 0 {
			delay = time.Microsecond
		}
		p.record(Event{Kind: "delay", From: from, To: to, Tag: tag, Attempt: attempt,
			Detail: delay.String()})
	}
	if pr.FlipProb > 0 && attempt == 0 && len(data) >= 4 &&
		unit(p.hash(from, to, tag, 0, saltFlip)) < pr.FlipProb {
		p.flip(from, to, tag, data)
	}
	if pr.DropProb > 0 && unit(p.hash(from, to, tag, attempt, saltDrop)) < pr.DropProb {
		drop = true
		p.record(Event{Kind: "drop", From: from, To: to, Tag: tag, Attempt: attempt})
	}
	return drop, delay
}

// flip corrupts 1 + words/64 FP32 words of the payload by XOR-ing
// FlipBit, honoring the lifetime MaxFlips budget.
func (p *Plan) flip(from, to, tag int, data []byte) {
	p.mu.Lock()
	if p.Prof.MaxFlips > 0 && p.flips >= p.Prof.MaxFlips {
		p.mu.Unlock()
		return
	}
	p.flips++
	p.mu.Unlock()
	words := len(data) / 4
	n := 1 + words/64
	bit := p.Prof.FlipBit % 32
	for i := 0; i < n; i++ {
		w := int(p.hash(from, to, tag, i, saltFlipWord) % uint64(words))
		data[4*w+int(bit/8)] ^= 1 << (bit % 8)
	}
	p.record(Event{Kind: "bitflip", From: from, To: to, Tag: tag,
		Detail: fmt.Sprintf("%d words, bit %d", n, bit)})
}

// PermitStep implements the distributed runner's StepGate: it returns
// false exactly once, for the profile's (KillRank, KillStep), after
// which the rank's goroutine exits and its peers detect the death via
// halo/barrier deadlines.
func (p *Plan) PermitStep(rank, step int) bool {
	pr := &p.Prof
	if pr.KillRank < 0 || (pr.KillRank == 0 && pr.KillStep == 0) ||
		rank != pr.KillRank || step != pr.KillStep {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.killed {
		return true
	}
	p.killed = true
	p.events = append(p.events, Event{Kind: "kill", From: rank, Detail: fmt.Sprintf("step %d", step)})
	return false
}

// record appends to the bounded event log.
func (p *Plan) record(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.events) < maxEvents {
		p.events = append(p.events, e)
	} else {
		p.overflow++
	}
}

// Events returns a copy of the injected-fault log (at most maxEvents
// entries) and the count of unrecorded overflow events.
func (p *Plan) Events() ([]Event, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...), p.overflow
}

// Flips returns how many messages have been corrupted so far.
func (p *Plan) Flips() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flips
}

// MLOutputFault returns an ML-physics output-corruption hook (see
// mlphysics.Suite.SetOutputFault): on the at-th Compute call (1-based,
// derived deterministically from seed when at <= 0) it overwrites three
// tendency outputs with NaN — the signature failure of an FP32
// inference overflow — exercising the suite's scalar-oracle fallback.
func MLOutputFault(seed int64, at int) func(tend, rad []float64) {
	if at <= 0 {
		at = 2 + int(mix(uint64(seed))%5)
	}
	calls := 0
	return func(tend, rad []float64) {
		calls++
		if calls != at || len(tend) == 0 {
			return
		}
		nan := math.NaN()
		for i := 0; i < 3 && i < len(tend); i++ {
			w := int(mix(uint64(seed)^uint64(i+1)) % uint64(len(tend)))
			tend[w] = nan
		}
	}
}
