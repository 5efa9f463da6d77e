// Command benchmark is the repository's one measuring instrument: six
// named workloads over the compute plane and the query plane, four
// end-to-end metrics per workload, and a traced run that walks a
// per-module layer ladder. BENCHMARK.json at the repository root names
// the workloads, metrics, units, directions and regression bounds;
// README.md in this directory says why each workload exists and which
// layer metric is expected to move which end-to-end metric.
//
//	go run ./benchmark -seed 1                      # every workload, tracing off
//	go run ./benchmark -seed 1 -trace               # layer ladder + traced replays
//	go run ./benchmark -seed 1 -sets 2              # repeatability self-check
//	go run ./benchmark -workload serve_hot_g6 -seed 7 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported number. Count marks a value that must
// repeat exactly between runs of the same code.
type metricDef struct {
	Name         string
	Unit         string
	HigherBetter bool
	Bound        float64 // end-to-end only: allowed worsening as a share of the parent's median
	Count        bool
}

// endToEnd are the metrics every workload reports with tracing off.
// Each workload defines its own unit of work (see workloads); the same
// four names on every workload let every (metric, workload) pairing be
// compared between two commits.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", HigherBetter: true, Bound: 0.25},
	{Name: "latency_ms", Unit: "ms", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Bound: 0.25},
}

// value is one measured number as printed in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// alias is a number printed under the name the issue tracker and later
// changes cite (cell_levels_per_s, sypd, accepted_qps, ...), beside the
// generic end-to-end metric it is derived from, with its sample count.
type alias struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// measurement is what one pass over a workload's measured phase yields.
type measurement struct {
	unitMS   []float64 // wall of each unit of work, ms
	unitWork float64   // work in one unit; work_per_s = unitWork over the typical unit wall
	rate     float64   // set, with typMS and tailMS, by workloads that aggregate themselves (serve)
	typMS    float64   // typical latency: the quiet quartile
	tailMS   float64
	tailP    float64 // percentile tailMS was taken at
	samples  int     // latency samples behind typMS / tailMS
	segments map[string][]float64
	checks
	aliases []alias
	counts  map[string]int
}

// checks counts operations attempted and failed, with one note per
// failure; set-up, measurements and the ladder each carry one and the
// run adds them up.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.notes = append(c.notes, o.notes...)
}

// aggregate reduces per-unit walls to the typical unit (the quiet
// quartile, see quietQuartile), the rate derived from it, and the tail.
// Fewer than twenty units resolve no tail; it then reads as the typical
// unit.
func (m *measurement) aggregate() {
	if len(m.unitMS) == 0 {
		return
	}
	m.typMS = quietQuartile(m.unitMS, false)
	m.rate = m.unitWork / (m.typMS / 1e3)
	m.tailP, m.tailMS = 25, m.typMS
	if p := tailPercentile(len(m.unitMS)); p > 50 {
		m.tailP, m.tailMS = p, percentile(sortedCopy(m.unitMS), p)
	}
}

// instance is a workload after set-up: its measured phase can run more
// than once (the traced run measures it with the recorder off and on).
type instance interface {
	measure(rec *recorder, scale float64) measurement
	close()
}

// prepared is what set-up hands back beside the instance: the set-up
// time and the pre-checks' account.
type prepared struct {
	setupS float64
	checks
}

// workload is one named set of inputs.
type workload struct {
	name    string
	why     string
	unit    string // what work_per_s counts and latency_* times; printed beside them
	prepare func(c *runCtx) (instance, prepared, error)
}

var workloads = []workload{
	{"dyn_dp_g5l30_r2", "compute plane as the paper scales it: 2-rank DP dry dynamics on G5x30, dycore does ~90% of the work",
		"cell-level step; latency = one distributed call", prepareDyn},
	{"coupled_ml_mix_g4l20", "production configuration: mixed precision + ML physics + tracers in one serial model, host-parallel loops instead of ranks",
		"simulated second; latency = one physics step", prepareCoupled},
	{"mlphys_batch_g5l30", "mlphysics + infer do ~100% of the work, dycore none: the only place an inference change shows above noise",
		"column; latency = one Suite.Compute call", prepareMLBatch},
	{"ckpt_pipeline_g6l20_r4", "writes beside reads: shard write + commit + poll + first answer per epoch with a closed-loop reader running throughout",
		"MB on disk; latency = first WriteShard to first answer at the epoch", prepareCkpt},
	{"serve_hot_g6", "query plane as a client sees it over a real gristd socket: 16 hotspots, every tile a cache hit",
		"accepted query; latency = open loop from due time", prepareServeHot},
	{"serve_scan_g6", "same daemon used differently: 1920 tile keys against 96 slots plus region and range queries, so tile build and eviction do the work",
		"accepted query; latency = open loop from due time", prepareServeScan},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runCtx carries one invocation's inputs to the workloads.
type runCtx struct {
	seed    int64
	sz      sizes
	smoke   bool
	root    string // repository root (where go.mod lives)
	scratch string // per-process scratch directory under benchmark/out
	reps    int    // set-up repetitions; the median is reported
}

// outcome is one workload's finished run.
type outcome struct {
	Workload  string               `json:"workload"`
	Unit      string               `json:"unit_of_work"`
	Attempted int                  `json:"ops_attempted"`
	Failed    int                  `json:"ops_failed"`
	Notes     []string             `json:"notes,omitempty"`
	Metrics   map[string]float64   `json:"metrics"`
	TailP     float64              `json:"tail_percentile"`
	Samples   int                  `json:"samples"`
	UnitMS    []float64            `json:"unit_ms,omitempty"`  // every unit's wall, in order
	Segments  map[string][]float64 `json:"segments,omitempty"` // serve: per-window rates and latency percentiles
	Aliases   []alias              `json:"aliases"`
	Counts    map[string]int       `json:"counts"`
	CalibMS   [2]float64           `json:"host_calib_ms"`
}

// finish turns set-up and one measurement into the four end-to-end
// metrics.
func finish(w *workload, p prepared, m measurement) outcome {
	all := p.checks
	all.add(m.checks)
	o := outcome{
		Workload:  w.name,
		Unit:      w.unit,
		Attempted: all.attempted,
		Failed:    all.failed,
		Notes:     all.notes,
		Metrics:   map[string]float64{"setup_s": p.setupS},
		Samples:   m.samples + len(m.unitMS),
		UnitMS:    m.unitMS,
		Segments:  m.segments,
		Aliases:   m.aliases,
		Counts:    m.counts,
	}
	m.aggregate()
	o.Metrics["work_per_s"], o.Metrics["latency_ms"], o.Metrics["latency_tail_ms"], o.TailP = m.rate, m.typMS, m.tailMS, m.tailP
	for _, d := range endToEnd {
		v, ok := o.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			o.Failed++
			o.Notes = append(o.Notes, fmt.Sprintf("metric %s not measured (%v)", d.Name, v))
			o.Metrics[d.Name] = jsonSafe(v)
		}
	}
	for _, seg := range o.Segments {
		for i, v := range seg {
			seg[i] = jsonSafe(v)
		}
	}
	return o
}

// jsonSafe maps the values JSON cannot carry onto ones it can: +Inf is
// how a latency records "nothing was served" and becomes the largest
// float; NaN ("not measured") becomes -1. The failure count says the
// rest.
func jsonSafe(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return -1
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// runWorkload is the untraced run: set-up, pre-checks, one full
// measurement, bracketed by the host calibration loop.
func runWorkload(w *workload, c *runCtx) (outcome, error) {
	cal0 := calibrate()
	inst, p, err := w.prepare(c)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", w.name, err)
	}
	m := inst.measure(nil, 1)
	inst.close()
	o := finish(w, p, m)
	o.CalibMS = [2]float64{cal0, calibrate()}
	return o, nil
}

// calibrate times a fixed integer spin loop, best of three. Two readings
// taken around a run that differ by more than 5% say the host, not the
// program, moved.
func calibrate() float64 {
	best := math.Inf(1)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink = x
		best = math.Min(best, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return best
}

var calibSink uint64

func printOutcome(o outcome) {
	fmt.Printf("== %s  ops_attempted=%d ops_failed=%d  (unit of work: %s)\n", o.Workload, o.Attempted, o.Failed, o.Unit)
	for _, d := range endToEnd {
		extra := ""
		switch d.Name {
		case "latency_ms":
			extra = fmt.Sprintf("  n=%d", o.Samples)
		case "latency_tail_ms":
			extra = fmt.Sprintf("  n=%d at p%g", o.Samples, o.TailP)
		}
		fmt.Printf("   %-28s %14.6g %-6s%s\n", d.Name, o.Metrics[d.Name], d.Unit, extra)
	}
	for _, a := range o.Aliases {
		fmt.Printf("   %-28s %14.6g %-6s  n=%d\n", a.Name, a.Value, a.Unit, a.N)
	}
	keys := make([]string, 0, len(o.Counts))
	for k := range o.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   count %-22s %14d\n", k, o.Counts[k])
	}
	noisy := ""
	if math.Abs(o.CalibMS[1]-o.CalibMS[0]) > 0.05*o.CalibMS[0] {
		noisy = "  NOISY HOST (readings differ by more than 5%)"
	}
	fmt.Printf("   %-28s %14.6g %-6s  before; %.6g after%s\n", "host.calib_ms", o.CalibMS[0], "ms", o.CalibMS[1], noisy)
	for _, n := range o.Notes {
		fmt.Printf("   FAILED: %s\n", n)
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is everything one invocation measured, written to
// benchmark/out/result.json.
type report struct {
	Env      environment        `json:"env"`
	Sets     [][]outcome        `json:"sets,omitempty"`
	Layers   map[string]float64 `json:"per_layer,omitempty"`
	Replays  []replay           `json:"traced_replays,omitempty"`
	Attempts int                `json:"ops_attempted"`
	Failed   int                `json:"ops_failed"`
}

// normalizeArgs lets the boolean -trace flag also be written as
// "-trace 0" / "-trace 1", the form the benchmark driver uses.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// cleanups run once, in reverse order, on every way out of the process:
// normal return, error, SIGINT and SIGTERM. They stop child processes
// and remove scratch.
var cleanups cleanupStack

func main() {
	code := run(os.Args[1:])
	cleanups.run()
	os.Exit(code)
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	wl := fs.String("workload", "all", "workload to run: one of the six names, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input (bubble position, ML weights, state perturbations, URL lists, open-loop schedule)")
	seconds := fs.Float64("seconds", 10, "target length of each workload's measured phase; step / epoch / query counts scale with it")
	trace := fs.Bool("trace", false, "traced run: the per-layer ladder plus a traced replay of the workload(s); writes benchmark/out/trace.json")
	sets := fs.Int("sets", 1, "run the set this many times and fail unless every end-to-end metric agrees within its bound (with -trace: unless every count rung repeats exactly)")
	smoke := fs.Bool("smoke", false, "G3 meshes, a few steps, in-process server instead of the gristd child: exercises every call site in seconds")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be within [1, 60]")
		return 2
	}
	var selected []*workload
	if *wl == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*wl); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *wl)
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	outDir := filepath.Join(root, "benchmark", "out")
	scratch := filepath.Join(outDir, fmt.Sprintf("scratch-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cleanups.push(func() { os.RemoveAll(scratch) })
	sig := make(chan os.Signal, 1)
	// SIGPIPE too: a reader that closes the pipe early (| head) must not
	// leave scratch or a child behind.
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sig
		cleanups.run()
		os.Exit(130)
	}()

	c := &runCtx{seed: *seed, sz: sizesFor(*seconds, *smoke), smoke: *smoke, root: root, scratch: scratch, reps: 3}
	rep := report{Env: recordEnv(root, scratch, *seed, *seconds, *smoke)}
	line := resultLine{Metrics: map[string]value{}}
	// With one workload selected the result line carries bare metric
	// names; with all of them each name is prefixed by its workload.
	key := func(w, name string) string {
		if len(selected) == 1 {
			return name
		}
		return w + "/" + name
	}

	if *trace {
		rec := newRecorder()
		layers, sum := runLadder(c, rec)
		// -sets with -trace walks the ladder again: timings may differ,
		// the (count) rungs may not.
		for s := 1; s < *sets; s++ {
			again, more := runLadder(c, rec)
			sum.add(more)
			for _, d := range ladderMetrics {
				if d.Count {
					sum.check(again[d.Name] == layers[d.Name], "count %s read %v in set 1 and %v in set %d", d.Name, layers[d.Name], again[d.Name], s+1)
				}
			}
		}
		for _, w := range selected {
			r, err := runReplay(w, c, rec)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			rep.Replays = append(rep.Replays, r)
			sum.add(checks{r.Attempted, r.Failed, r.Notes})
			for k, v := range r.Layers {
				r.Layers[k] = jsonSafe(v)
				line.Metrics[key(w.name, k)] = value{r.Layers[k], layerUnit(k)}
			}
		}
		for _, d := range ladderMetrics {
			v, ok := layers[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				sum.fail("layer metric %s not measured (%v)", d.Name, v)
				layers[d.Name] = jsonSafe(v)
			}
			line.Metrics[d.Name] = value{layers[d.Name], d.Unit}
		}
		rep.Layers, rep.Attempts, rep.Failed = layers, sum.attempted, sum.failed
		printLayers(layers, rep.Replays, sum.notes)
		tracePath := filepath.Join(outDir, "trace.json")
		if err := rec.writeChrome(tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
			return 1
		}
		fmt.Printf("trace: %d spans written to %s\n", len(rec.spans), tracePath)
		line.Attempted, line.Failed = sum.attempted, sum.failed
	} else {
		for s := 0; s < *sets; s++ {
			var set []outcome
			for _, w := range selected {
				o, err := runWorkload(w, c)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				printOutcome(o)
				set = append(set, o)
				line.Attempted += o.Attempted
				line.Failed += o.Failed
			}
			rep.Sets = append(rep.Sets, set)
		}
		for _, o := range rep.Sets[0] {
			for _, d := range endToEnd {
				line.Metrics[key(o.Workload, d.Name)] = value{o.Metrics[d.Name], d.Unit}
			}
		}
		rep.Attempts, rep.Failed = line.Attempted, line.Failed
		if *sets > 1 && !compareSets(rep.Sets) {
			line.Failed++
		}
	}

	raw, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "result.json"), append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing result.json:", err)
	}
	line.Correct = line.Failed == 0
	raw, err = json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(raw))
	if !line.Correct {
		return 1
	}
	return 0
}

// compareSets prints, for every workload and end-to-end metric, the
// relative difference between the first set and each later one, and
// reports whether all of them lie within the metric's own bound.
func compareSets(sets [][]outcome) bool {
	ok := true
	fmt.Println("== repeatability (set 1 vs later sets)")
	for s := 1; s < len(sets); s++ {
		for i, a := range sets[0] {
			b := sets[s][i]
			for _, d := range endToEnd {
				va, vb := a.Metrics[d.Name], b.Metrics[d.Name]
				diff := math.Abs(worseBy(va, vb, d.HigherBetter))
				verdict := "ok"
				if !agree(va, vb, d.Bound) {
					verdict, ok = "DISAGREE", false
				}
				fmt.Printf("   %-24s %-16s set1=%-12.6g set%d=%-12.6g diff=%6.2f%% bound=%4.0f%%  %s\n",
					a.Workload, d.Name, va, s+1, vb, 100*diff, 100*d.Bound, verdict)
			}
			for k, n := range a.Counts {
				if b.Counts[k] != n {
					ok = false
					fmt.Printf("   %-24s count %-16s set1=%d set%d=%d  DISAGREE\n", a.Workload, k, n, s+1, b.Counts[k])
				}
			}
			fmt.Printf("   %-24s host.calib_ms    set1=%.4g/%.4g set%d=%.4g/%.4g\n",
				a.Workload, a.CalibMS[0], a.CalibMS[1], s+1, b.CalibMS[0], b.CalibMS[1])
		}
	}
	return ok
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module gristgo.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(raw)), "module gristgo") {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", fmt.Errorf("no go.mod of module gristgo above the working directory; run from the repository root")
		}
		dir = up
	}
}
