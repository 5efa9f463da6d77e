package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
)

// sizes fixes every mesh level and count of one invocation. Mesh levels
// never change with -seconds; step, epoch and query counts scale with it
// so that each workload's measured phase lasts about that long on the
// reference host (2 vCPU Xeon @ 2.1 GHz).
type sizes struct {
	Seconds float64 `json:"seconds"`

	DynLevel, DynNLev, DynRanks int
	DynSteps, DynCheckSteps     int
	DynDt                       float64

	CplLevel, CplNLev int
	CplSteps          int

	MLLevel, MLNLev           int // columns = cells of this level
	MLCalls, MLCheckCols      int
	MLOracleCols              int
	SrvLevel, SrvNLev         int
	SrvParts, SrvEpochs       int
	CkptWarm, CkptEpochs      int
	WarmS, SegS               float64 // SegS: one open-loop segment; a closed-loop segment is half that
	ClosedSegs, OpenSegs      int     // phase lengths in segments
	HotRate, ScanRate         float64 // open-loop requests per second
	Hotspots                  int
	LadderSteps               int // serial dycore steps timed per mode
	LadderDistSteps           int
	LadderCplSteps            int
	LadderEpochs              int
	LadderQueries             int
	LadderHaloRounds          int
	LadderSpanIters           int
	HostparLevel, HostparNLev int
}

func sizesFor(seconds float64, smoke bool) sizes {
	n := func(perSecond float64, min int) int {
		v := int(math.Round(perSecond * seconds))
		if v < min {
			v = min
		}
		return v
	}
	if smoke {
		return sizes{
			Seconds:  seconds,
			DynLevel: 3, DynNLev: 8, DynRanks: 2, DynSteps: 4, DynCheckSteps: 2, DynDt: 120,
			CplLevel: 3, CplNLev: 8, CplSteps: 2,
			MLLevel: 3, MLNLev: 8, MLCalls: 2, MLCheckCols: 64, MLOracleCols: 64,
			SrvLevel: 3, SrvNLev: 8, SrvParts: 4, SrvEpochs: 8, CkptWarm: 1, CkptEpochs: 3,
			WarmS: 0.05, SegS: 0.1, ClosedSegs: 4, OpenSegs: 4, HotRate: 500, ScanRate: 500, Hotspots: 16,
			LadderSteps: 2, LadderDistSteps: 2, LadderCplSteps: 1, LadderEpochs: 2,
			LadderQueries: 200, LadderHaloRounds: 20, LadderSpanIters: 10_000,
			HostparLevel: 3, HostparNLev: 8,
		}
	}
	return sizes{
		Seconds:  seconds,
		DynLevel: 5, DynNLev: 30, DynRanks: 2, DynSteps: n(3.2, 4), DynCheckSteps: 4, DynDt: 120,
		CplLevel: 4, CplNLev: 20, CplSteps: n(1.2, 2),
		MLLevel: 5, MLNLev: 30, MLCalls: n(1.4, 2), MLCheckCols: 256, MLOracleCols: 1024,
		SrvLevel: 6, SrvNLev: 20, SrvParts: 4, SrvEpochs: 8, CkptWarm: 2, CkptEpochs: n(4, 4),
		WarmS: 0.1 * seconds, SegS: 0.5, ClosedSegs: n(1.6, 4), OpenSegs: n(1, 4), HotRate: 6000, ScanRate: 3000, Hotspots: 16,
		LadderSteps: 6, LadderDistSteps: 12, LadderCplSteps: 3, LadderEpochs: 6,
		LadderQueries: 20_000, LadderHaloRounds: 200, LadderSpanIters: 1_000_000,
		HostparLevel: 4, HostparNLev: 20,
	}
}

// environment is the record ROADMAP aim 1 requires beside any speed
// claim: the host, the toolchain, the commit, where scratch lives, the
// seed and the counts actually run.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Scratch    string  `json:"scratch_dir"`
	ScratchFS  string  `json:"scratch_fs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Sizes      sizes   `json:"sizes"`
}

func recordEnv(root, scratch string, seed int64, seconds float64, smoke bool) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commitHash(root),
		Scratch:    scratch,
		ScratchFS:  fsKind(scratch),
		Seed:       seed,
		Seconds:    seconds,
		Smoke:      smoke,
		Sizes:      sizesFor(seconds, smoke),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitHash asks git for HEAD; a checkout that is not a repository (the
// benchmark driver's) records "unknown".
func commitHash(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsKind tells a memory-backed scratch directory from a disk-backed one:
// the checkpoint workload's numbers mean different things on each.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	const tmpfsMagic, ramfsMagic = 0x01021994, 0x858458f6
	if st.Type == tmpfsMagic || st.Type == ramfsMagic {
		return "tmpfs"
	}
	return "disk"
}

// cleanupStack holds the undo actions of everything the process started.
type cleanupStack struct {
	mu  sync.Mutex
	fns []func()
}

func (s *cleanupStack) push(f func()) {
	s.mu.Lock()
	s.fns = append(s.fns, f)
	s.mu.Unlock()
}

// run calls every pushed action once, newest first.
func (s *cleanupStack) run() {
	s.mu.Lock()
	fns := s.fns
	s.fns = nil
	s.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}
