package serve

// Storage-plane chaos for the serving path: a producer commits epochs
// through a fault-injecting filesystem while a poller publishes them and
// a load replay queries the plane, once per filesystem fault profile.
// Three serving invariants must hold:
//
//  1. zero non-breaker 5xx — storage faults degrade (quarantine,
//     staleness headers, breaker sheds) but never surface as
//     unexplained server errors;
//  2. zero corrupt bytes served — every published snapshot matches the
//     checksum of the same epoch produced with injection off (CRC
//     verification plus quarantine keeps torn/flipped data out of the
//     serving window);
//  3. bounded recovery — once injection stops, continued production
//     drains the quarantine (re-verify or age out of the retention
//     window) and staleness returns to zero within a bounded number of
//     polls.

import (
	"path/filepath"
	"testing"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/fault"
	"gristgo/internal/telemetry"
	"gristgo/internal/vfs"
)

// The chaos setup: G3 (testMesh), six epochs per fault profile, and
// enough recovery headroom for a permanently torn epoch to age out of
// the retention window.
const (
	chaosNLev     = 4
	chaosEpochs   = 6     // epochs produced under fault injection
	chaosQueries  = 2_000 // queries per load burst (one burst per produced epoch)
	chaosRetain   = 4
	chaosTiles    = 16
	chaosMaxStale = 2
	chaosSeed     = 11

	// chaosRecoveryBound caps the produce+poll iterations allowed for
	// the plane to fully recover after injection stops.
	chaosRecoveryBound = 24
)

// chaosProfiles lists the filesystem fault profiles each run exercises.
var chaosProfiles = []string{"fsflaky", "fstorn", "fsslow"}

// chaosLeg is one fault profile's outcome.
type chaosLeg struct {
	epochsProduced int // committed under injection (incl. torn commits)
	produceRetries int // writer-side retries absorbed by fault injection
	pollErrors     int // polls that returned an error

	quarantined   int64
	unquarantined int64

	checksumsMatch bool // every served snapshot == clean reference
	recovered      bool
	recoveryPolls  int

	load loadReport
}

// benchState builds one epoch's full-mesh state: a resting isothermal
// atmosphere with a traveling warm anomaly and a solid-body wind, so
// the served fields vary by epoch without running the dycore.
func benchState(epoch int) *dycore.State {
	s := dycore.NewState(testMesh, chaosNLev)
	s.IsothermalRest(290 + float64(epoch))
	s.AddThermalBubble(0.3+0.2*float64(epoch), 1.0, 0.25, 5)
	s.AddSolidBodyWind(15)
	return s
}

// cleanChecksums derives the uninjected truth: the snapshot checksum
// of every epoch the producer can commit, computed directly from the
// deterministic per-epoch state without touching a filesystem.
func cleanChecksums(epochs int) map[int]uint64 {
	sums := make(map[int]uint64, epochs)
	for e := 0; e < epochs; e++ {
		sums[e] = SnapshotFromState(e, e*10, benchState(e)).Checksum()
	}
	return sums
}

// quarantineCount sums the reason-labelled quarantine counter.
func quarantineCount(reg *telemetry.Registry) int64 {
	var total int64
	for _, reason := range []string{FailMissing, FailTorn, FailCorrupt, FailIO} {
		total += reg.Counter("grist_serve_quarantined_total", "reason", reason).Value()
	}
	return total
}

// runChaosLeg runs producer + poller + load under one fault profile in
// dir, then recovers with injection off.
func runChaosLeg(t *testing.T, dir string, prof fault.FSProfile, sums map[int]uint64) chaosLeg {
	leg := chaosLeg{checksumsMatch: true}
	ffs := fault.NewFS(vfs.OS, chaosSeed, prof)
	pl := core.NewDistPlan(testMesh, chaosNLev, 1, 12345)
	st, err := core.NewShardStoreFS(dir, pl, ffs)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	srv := NewServer(testMesh, Config{Tiles: chaosTiles, Retain: chaosRetain, MaxStale: chaosMaxStale}, reg)
	poller := NewShardPoller(st, srv.Engine.Store())
	poller.SetSeed(chaosSeed)
	poller.SetMetrics(reg)

	// produce commits one epoch through the (possibly faulty) store,
	// retrying explicit write errors a few times the way a real producer
	// would; torn renames report success and are the poller's problem.
	produce := func(epoch int) {
		s := benchState(epoch)
		step := epoch * 10
		for attempt := 0; attempt < 5; attempt++ {
			if err := st.WriteShard(epoch, 0, step, s); err != nil {
				leg.produceRetries++
				continue
			}
			if err := st.Commit(epoch, step); err != nil {
				leg.produceRetries++
				continue
			}
			leg.epochsProduced++
			return
		}
	}

	// verifyServed checks every snapshot currently in the serving window
	// is bitwise the clean reference for its epoch.
	verifyServed := func() {
		store := srv.Engine.Store()
		for _, e := range store.Epochs() {
			if snap, ok := store.At(e); ok && snap.Checksum() != sums[e] {
				leg.checksumsMatch = false
			}
		}
	}

	poll := func() {
		if _, err := poller.Poll(); err != nil {
			leg.pollErrors++
		}
		srv.SetStaleness(poller.Staleness())
		srv.SetQuarantine(poller.Quarantined())
	}

	// Phase 1: produce + poll + load under injection.
	for e := 0; e < chaosEpochs; e++ {
		produce(e)
		poll()
		verifyServed()
		if srv.Engine.Store().Latest() == nil {
			continue // nothing published yet; a load burst would be all 404s
		}
		leg.load.add(runLoadInProcess(srv.Mux(), srv.Engine, chaosQueries, chaosSeed+int64(e)))
	}

	// Phase 2: injection off; continued production must drain the
	// quarantine (re-verify or age out) and staleness within the bound.
	ffs.SetActive(false)
	next := chaosEpochs
	for i := 0; i < chaosRecoveryBound; i++ {
		if len(poller.Quarantined()) == 0 && poller.Staleness() == 0 {
			break
		}
		produce(next)
		next++
		poll()
		leg.recoveryPolls++
	}
	leg.recovered = len(poller.Quarantined()) == 0 && poller.Staleness() == 0
	verifyServed()

	// Post-recovery burst: the healthy plane serves clean.
	if srv.Engine.Store().Latest() != nil {
		leg.load.add(runLoadInProcess(srv.Mux(), srv.Engine, chaosQueries, chaosSeed+1000))
	}

	leg.quarantined = quarantineCount(reg)
	leg.unquarantined = reg.Counter("grist_serve_unquarantined_total").Value()
	return leg
}

// runChaos runs every fault profile, each in its own directory under
// root.
func runChaos(t *testing.T, root string) map[string]chaosLeg {
	sums := cleanChecksums(chaosEpochs + chaosRecoveryBound)
	legs := map[string]chaosLeg{}
	for _, name := range chaosProfiles {
		prof, err := fault.ParseFSProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		legs[name] = runChaosLeg(t, filepath.Join(root, name), prof, sums)
	}
	return legs
}

// Every leg must uphold the three serving invariants, and the run must
// land inside each literal bound below: the zero-5xx and client-4xx
// counts per leg, at least one answered query under fsflaky, between 1
// and 60 quarantines in all, fstorn producing 1 to 64 epochs, and
// recovery within 24 polls.
func TestChaosServeInvariants(t *testing.T) {
	legs := runChaos(t, t.TempDir())
	var quarantined int64
	maxRecoveryPolls := 0
	for _, name := range chaosProfiles {
		leg := legs[name]
		t.Logf("%-8s produced=%d retries=%d poll errors=%d quarantined=%d unquarantined=%d recovery polls=%d load=%+v",
			name, leg.epochsProduced, leg.produceRetries, leg.pollErrors, leg.quarantined, leg.unquarantined,
			leg.recoveryPolls, leg.load)
		if leg.load.Server5xx != 0 {
			t.Errorf("%s: storage faults surfaced as %d non-breaker 5xx", name, leg.load.Server5xx)
		}
		if !leg.checksumsMatch {
			t.Errorf("%s: a published snapshot diverged from the clean reference (corrupt bytes served)", name)
		}
		if !leg.recovered {
			t.Errorf("%s: did not recover within %d polls", name, chaosRecoveryBound)
		}
		if leg.load.OK == 0 {
			t.Errorf("%s: no query succeeded", name)
		}
		if leg.load.Client4xx != 0 {
			t.Errorf("%s: %d client 4xx from the well-formed workload", name, leg.load.Client4xx)
		}
		if leg.epochsProduced == 0 {
			t.Errorf("%s: producer never committed an epoch", name)
		}
		quarantined += leg.quarantined
		maxRecoveryPolls = max(maxRecoveryPolls, leg.recoveryPolls)
	}
	if quarantined < 1 || quarantined > 60 {
		t.Errorf("%d epochs quarantined in all, want 1 to 60 (0: the chaos is not injecting)", quarantined)
	}
	if maxRecoveryPolls > 24 {
		t.Errorf("slowest recovery took %d polls, want at most 24", maxRecoveryPolls)
	}
	// The flaky and torn profiles must actually provoke quarantines;
	// fsslow only delays, so it is allowed zero.
	if legs["fstorn"].quarantined == 0 {
		t.Error("fstorn: torn renames never quarantined an epoch")
	}
	if n := legs["fstorn"].epochsProduced; n < 1 || n > 64 {
		t.Errorf("fstorn: %d epochs produced, want 1 to 64", n)
	}
}
