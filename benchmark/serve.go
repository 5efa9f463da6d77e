package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/serve"
	"gristgo/internal/telemetry"
)

const (
	serveTiles    = 48    // gristd's -tiles default
	tilerSeed     = 12345 // serve.Config's default Seed
	daemonTimeout = 30 * time.Second
)

// ---- the daemon --------------------------------------------------------

// buildGristd compiles ./cmd/gristd into benchmark/out/bin. A second
// call finds the binary up to date and returns in a fraction of a
// second. Not part of any timed region.
func buildGristd(root string) (string, error) {
	bin := filepath.Join(root, "benchmark", "out", "bin", "gristd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gristd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/gristd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is a running query plane: a gristd child, or (smoke) the same
// server in this process.
type daemon struct {
	baseURL string
	stop    func()
}

// startGristd execs the daemon with every flag but the address, data
// directory and producer shape at its default, and returns once
// /v1/epochs lists all the epochs in dir. On failure the child is killed
// and its standard error is part of the error.
func startGristd(bin, dir string, sz sizes) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir,
		"-level", strconv.Itoa(sz.SrvLevel), "-layers", strconv.Itoa(sz.SrvNLev), "-parts", strconv.Itoa(sz.SrvParts))
	// The child must not outlive a benchmark that dies without cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	drained := make(chan struct{})
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cmd.Process.Kill()
			<-drained // Wait closes the pipe; the reader must be done first
			cmd.Wait()
		})
	}
	cleanups.push(stop)

	// The daemon prints "gristd on http://ADDR/ (...)" once it listens;
	// keep draining afterwards so it never blocks on a full pipe.
	addrCh := make(chan string, 1)
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "gristd on http://"); ok {
				addr, _, _ := strings.Cut(rest, "/")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	fail := func(why string) (*daemon, error) {
		stop()
		return nil, fmt.Errorf("gristd: %s\n--- gristd stderr ---\n%s", why, stderr.String())
	}
	deadline := time.Now().Add(daemonTimeout)
	var addr string
	select {
	case addr = <-addrCh:
	case <-drained:
		return fail("exited before listening")
	case <-time.After(daemonTimeout):
		return fail("did not print its address within " + daemonTimeout.String())
	}
	d := &daemon{baseURL: "http://" + addr, stop: stop}
	if err := d.awaitEpochs(sz.SrvEpochs, deadline); err != nil {
		return fail(err.Error())
	}
	return d, nil
}

// awaitEpochs polls /v1/epochs until it lists want epochs.
func (d *daemon) awaitEpochs(want int, deadline time.Time) error {
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.baseURL + "/v1/epochs")
		if err == nil {
			var got struct {
				Epochs []int `json:"epochs"`
			}
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err == nil && len(got.Epochs) == want {
				return nil
			}
			last = fmt.Sprintf("listed %v", got.Epochs)
		} else {
			last = err.Error()
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("/v1/epochs not complete (%d epochs) by the deadline: %s", want, last)
}

// startInProcess serves the same mux from this process over a real
// loopback socket — the smoke run's stand-in for the child, and the
// layer ladder's socket rung.
func startInProcess(srv *serve.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Mux()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return &daemon{baseURL: "http://" + ln.Addr().String(), stop: func() {
		hs.Close()
		<-done
	}}, nil
}

// ---- the client --------------------------------------------------------

// conn is one keep-alive HTTP/1.1 connection of the load generator. It
// writes a minimal GET and parses the reply by hand: on a two-core host
// the generator shares the processors with the daemon, and a client that
// costs as much per request as the server would hide half of any server
// gain.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

func newConn(baseURL string) *conn {
	return &conn{addr: strings.TrimPrefix(baseURL, "http://")}
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// get issues one request and reads the whole body; the returned slice is
// valid until the next call. A transport error drops the connection and
// the next call dials again.
func (c *conn) get(path string) (status int, body []byte, cache string, err error) {
	if c.c == nil {
		if c.c, err = net.DialTimeout("tcp", c.addr, 5*time.Second); err != nil {
			c.c = nil
			return 0, nil, "", err
		}
		c.br = bufio.NewReaderSize(c.c, 64<<10)
	}
	c.req = append(append(append(append(c.req[:0], "GET "...), path...), " HTTP/1.1\r\nHost: "...), c.addr...)
	c.req = append(c.req, "\r\n\r\n"...)
	c.c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err = c.c.Write(c.req); err == nil {
		status, cache, err = c.readResponse()
	}
	if err != nil {
		c.close()
		return 0, nil, "", err
	}
	return status, c.body, cache, nil
}

// readResponse parses the status line, the three headers the generator
// needs, and a body framed by Content-Length or chunked encoding.
func (c *conn) readResponse() (status int, cache string, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, "", err
	}
	if len(line) < 12 {
		return 0, "", fmt.Errorf("short status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, "", fmt.Errorf("bad status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, "", err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, _ := bytes.Cut(line, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, "", err
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("X-Grist-Cache")):
			cache = string(v)
		case bytes.EqualFold(k, []byte("Connection")):
			closing = bytes.EqualFold(v, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			if line, err = c.br.ReadSlice('\n'); err != nil {
				return 0, "", err
			}
			n, perr := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
			if perr != nil {
				return 0, "", perr
			}
			if err = c.readBody(int(n) + 2); err != nil { // data + CRLF
				return 0, "", err
			}
			c.body = c.body[:len(c.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		err = c.readBody(length)
	default:
		return 0, "", fmt.Errorf("response without Content-Length or chunked encoding")
	}
	if closing {
		c.close()
	}
	return status, cache, err
}

// readBody appends the next n bytes of the stream to c.body.
func (c *conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		c.body = append(make([]byte, 0, 2*(at+n)), c.body...)
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}

// oracle recomputes served values from the state the benchmark wrote.
type oracle struct {
	m     *mesh.Mesh
	tiler *serve.Tiler
	snaps []*serve.Snapshot
}

// inBox counts the mesh cells whose centres lie in a degree box.
func (o *oracle) inBox(minLat, maxLat, minLon, maxLon float64) int {
	const rad = math.Pi / 180
	n := 0
	for c := 0; c < o.m.NCells; c++ {
		lat, lon := o.m.CellLat[c], o.m.CellLon[c]
		if lat >= minLat*rad && lat <= maxLat*rad && lon >= minLon*rad && lon <= maxLon*rad {
			n++
		}
	}
	return n
}

func (o *oracle) cell(latDeg, lonDeg float64) int32 {
	return o.tiler.Locate(latDeg*math.Pi/180, lonDeg*math.Pi/180)
}

// verify decodes one 2xx body and compares every value in it with the
// snapshot the benchmark derived from its own state.
func (o *oracle) verify(q query, body []byte) error {
	f, _ := serve.FieldID(q.field)
	latest := len(o.snaps) - 1
	switch q.kind {
	case "point":
		var r serve.PointResult
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		e := q.epoch
		if e < 0 {
			e = latest
		}
		c := o.cell(q.lat, q.lon)
		if r.Epoch != e || r.Cell != c || r.Value != o.snaps[e].Value(f, c) {
			return fmt.Errorf("point %s: got epoch %d cell %d value %v, want epoch %d cell %d value %v",
				q.path, r.Epoch, r.Cell, r.Value, e, c, o.snaps[e].Value(f, c))
		}
	case "region":
		var r serve.RegionResult
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		want := min(o.inBox(q.lat, q.maxLat, q.lon, q.maxLon), q.limit)
		if len(r.Cells) != want || len(r.Values) != want || r.Epoch != q.epoch {
			return fmt.Errorf("region %s: %d cells, %d values, epoch %d; want %d cells", q.path, len(r.Cells), len(r.Values), r.Epoch, want)
		}
		for i, c := range r.Cells {
			if r.Values[i] != o.snaps[q.epoch].Value(f, c) {
				return fmt.Errorf("region %s: cell %d value %v, want %v", q.path, c, r.Values[i], o.snaps[q.epoch].Value(f, c))
			}
		}
	case "range":
		var r serve.RangeResult
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		c := o.cell(q.lat, q.lon)
		if r.Cell != c || len(r.Series) != len(o.snaps) {
			return fmt.Errorf("range %s: cell %d with %d epochs, want cell %d with %d", q.path, r.Cell, len(r.Series), c, len(o.snaps))
		}
		for _, pt := range r.Series {
			if pt.Value != o.snaps[pt.Epoch].Value(f, c) {
				return fmt.Errorf("range %s: epoch %d value %v, want %v", q.path, pt.Epoch, pt.Value, o.snaps[pt.Epoch].Value(f, c))
			}
		}
	}
	return nil
}

// tally is one generator goroutine's account of a phase.
type tally struct {
	attempted, ok, hits int
	firstErr            string
	samples             []timed   // open loop only
	lagMS               []float64 // open loop only
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.hits += o.hits
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
	t.samples = append(t.samples, o.samples...)
	t.lagMS = append(t.lagMS, o.lagMS...)
}

// one sends query i of the list on c and accounts for it: anything that
// is not a 2xx with a valid JSON body is attempted-and-failed, and every
// hundredth answer is recomputed from the benchmark's own state.
func (si *serveInst) one(c *conn, i int, t *tally, rec *recorder, lane int) bool {
	q := si.queries[i%len(si.queries)]
	id := rec.begin("serve.request_"+q.kind, noSpan, lane)
	status, body, cache, err := c.get(q.path)
	rec.end(id)
	t.attempted++
	switch {
	case err != nil:
		err = fmt.Errorf("%s: %v", q.path, err)
	case status < 200 || status > 299:
		err = fmt.Errorf("%s: status %d: %s", q.path, status, bytes.TrimSpace(body))
	case !json.Valid(body):
		err = fmt.Errorf("%s: body is not valid JSON", q.path)
	case i%100 == 0:
		err = si.oracle.verify(q, body)
	}
	if err != nil {
		if t.firstErr == "" {
			t.firstErr = err.Error()
		}
		return false
	}
	t.ok++
	if cache == serve.CacheHit {
		t.hits++
	}
	return true
}

// closedLoop runs two connections, each sending its next request as soon
// as the previous answer is complete, for nseg windows of segS seconds.
// Beside the tally it returns the 2xx answers completed per second in
// each window; the phase's rate is their quiet quartile.
func (si *serveInst) closedLoop(nseg int, segS float64, rec *recorder) (tally, []float64) {
	const nconn = 2
	parts := make([]tally, nconn)
	okIn := make([][]int, nconn)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < nconn; w++ {
		okIn[w] = make([]int, nseg)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newConn(si.d.baseURL)
			defer c.close()
			for i := w * len(si.queries) / nconn; ; i++ {
				ok := si.one(c, i, &parts[w], rec, w)
				seg := int(time.Since(t0).Seconds() / segS)
				if seg >= nseg {
					return
				}
				if ok {
					okIn[w][seg]++
				}
			}
		}(w)
	}
	wg.Wait()
	var total tally
	for _, p := range parts {
		total.add(p)
	}
	rates := make([]float64, nseg)
	for seg := range rates {
		for w := range okIn {
			rates[seg] += float64(okIn[w][seg]) / segS
		}
	}
	return total, rates
}

// clock is the open loop's view of time, so a test can drive the
// scheduler without sleeping.
type clock interface {
	now() time.Duration // since the start of the phase
	sleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

// sleepUntil parks the thread in nanosleep(2). time.Sleep would not do:
// an otherwise idle Go process waits for its timers inside epoll_wait,
// whose timeout counts whole milliseconds, and the gap between two
// requests of one connection is a third of that.
func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// openLoopConn sends one connection's requests on schedule. Each request
// is timed from when it was due, not from when it was sent: when an
// answer stalls, the requests queued behind it are sent late and their
// latencies carry the wait. send reports whether the request succeeded;
// a failed request counts as +Inf.
func openLoopConn(clk clock, dueS []float64, send func(i int) bool) (samples []timed, lagMS []float64) {
	samples = make([]timed, 0, len(dueS))
	lagMS = make([]float64, 0, len(dueS))
	for i, due := range dueS {
		dueT := time.Duration(due * float64(time.Second))
		clk.sleepUntil(dueT)
		lag := clk.now() - dueT
		ok := send(i)
		lat := math.Inf(1)
		if ok {
			lat = ms(clk.now() - dueT)
		}
		samples = append(samples, timed{dueS: due, latencyMS: lat})
		lagMS = append(lagMS, ms(lag))
	}
	return samples, lagMS
}

// openLoop drives rate requests per second, split over two connections,
// for seconds.
func (si *serveInst) openLoop(rate, seconds float64, rec *recorder) tally {
	const nconn = 2
	parts := make([]tally, nconn)
	var wg sync.WaitGroup
	clk := wallClock{time.Now()}
	for w := 0; w < nconn; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newConn(si.d.baseURL)
			defer c.close()
			base := w * len(si.queries) / nconn
			t := &parts[w]
			t.samples, t.lagMS = openLoopConn(clk, openSchedule(si.seed, w, rate/nconn, seconds), func(i int) bool {
				return si.one(c, base+i, t, rec, w)
			})
		}(w)
	}
	wg.Wait()
	var total tally
	for _, p := range parts {
		total.add(p)
	}
	return total
}

// ---- serve_hot_g6 / serve_scan_g6 --------------------------------------

type serveInst struct {
	sz      sizes
	seed    int64
	rate    float64
	queries []query
	oracle  *oracle
	d       *daemon
	dataDir string
}

func prepareServeHot(c *runCtx) (instance, prepared, error) {
	return prepareServe(c, hotQueries(c.seed, c.sz.Hotspots), c.sz.HotRate)
}

func prepareServeScan(c *runCtx) (instance, prepared, error) {
	return prepareServe(c, scanQueries(c.seed, c.sz.SrvEpochs), c.sz.ScanRate)
}

// world is the mesh, plan and initial state of the query-plane producer.
func world(sz sizes) (*mesh.Mesh, *core.DistPlan, *dycore.State) {
	m := mesh.New(sz.SrvLevel).ReorderBFS()
	pl := core.NewDistPlan(m, sz.SrvNLev, sz.SrvParts, 12345)
	s := dycore.NewState(m, sz.SrvNLev)
	s.InitIdealized(dycore.CaseBaroclinicWave)
	return m, pl, s
}

func prepareServe(c *runCtx, queries []query, rate float64) (instance, prepared, error) {
	sz := c.sz
	var p prepared
	si := &serveInst{sz: sz, seed: c.seed, rate: rate, queries: queries, dataDir: filepath.Join(c.scratch, "serve-data")}

	// Inputs: the committed epochs the daemon reads, and the benchmark's
	// own copy of what they must answer.
	m, pl, state := world(sz)
	snaps, err := writeDataDir(si.dataDir, pl, state, sz.SrvEpochs, c.seed)
	if err != nil {
		return nil, p, err
	}
	si.oracle = &oracle{m: m, tiler: serve.NewTiler(m, serveTiles, tilerSeed), snaps: snaps}

	start := func() (*daemon, error) {
		srv := serve.NewServer(m, serve.Config{}, telemetry.NewRegistry())
		store, err := core.NewShardStore(si.dataDir, pl)
		if err != nil {
			return nil, err
		}
		if _, err := serve.NewShardPoller(store, srv.Engine.Store()).Poll(); err != nil {
			return nil, err
		}
		return startInProcess(srv)
	}
	reps := c.reps
	if !c.smoke {
		bin, err := buildGristd(c.root)
		if err != nil {
			return nil, p, err
		}
		start = func() (*daemon, error) { return startGristd(bin, si.dataDir, sz) }
		reps = 2 // each start loads eight G6 epochs
	}
	p.setupS = medianOf(reps, func() {
		if si.d != nil {
			si.d.stop()
		}
		if err == nil {
			si.d, err = start()
		}
	})
	if err != nil {
		return nil, p, err
	}
	return si, p, nil
}

func (si *serveInst) measure(rec *recorder, scale float64) measurement {
	sz := si.sz
	si.closedLoop(1, sz.WarmS*scale, nil) // fills the tile cache; discarded

	closed, rates := si.closedLoop(scaled(sz.ClosedSegs, scale), sz.SegS/2, rec)
	segs := scaled(sz.OpenSegs, scale)
	open := si.openLoop(si.rate, float64(segs)*sz.SegS, rec)

	m := measurement{
		rate:    quietQuartile(rates, true),
		samples: len(open.samples),
		checks:  checks{attempted: closed.attempted + open.attempted},
		counts:  map[string]int{"closed_segments": len(rates), "open_requests": open.attempted, "open_segments": segs, "queries_listed": len(si.queries)},
	}
	for _, t := range []tally{closed, open} {
		if bad := t.attempted - t.ok; bad > 0 {
			m.failed += bad
			m.notes = append(m.notes, fmt.Sprintf("%d of %d requests failed; first: %s", bad, t.attempted, t.firstErr))
		}
	}
	perSeg := int(si.rate * sz.SegS)
	m.tailP = tailPercentile(perSeg)
	segP50 := segmentPercentiles(open.samples, sz.SegS, segs, 50)
	segTail := segmentPercentiles(open.samples, sz.SegS, segs, m.tailP)
	m.typMS, m.tailMS = quietQuartile(segP50, false), quietQuartile(segTail, false)
	m.segments = map[string][]float64{"closed_qps": rates, "open_p50_ms": segP50, "open_tail_ms": segTail}
	lag := percentile(sortedCopy(open.lagMS), 99)
	okAll := closed.ok + open.ok
	m.aliases = []alias{
		{"accepted_qps", "1/s", m.rate, closed.attempted},
		{"latency_p50_ms", "ms", m.typMS, len(open.samples)},
		{fmt.Sprintf("latency_p%g_ms", m.tailP), "ms", m.tailMS, len(open.samples)},
		{"serve.hit_rate", "ratio", float64(closed.hits+open.hits) / math.Max(1, float64(okAll)), okAll},
		{"serve.rejected_share", "ratio", float64(m.failed) / float64(m.attempted), m.attempted},
		{"serve.gen_lag_ms_p99", "ms", lag, len(open.lagMS)},
	}
	if lag > 1 {
		m.aliases = append(m.aliases, alias{"serve.generator_bound", "bool", 1, len(open.lagMS)})
	}
	return m
}

func (si *serveInst) close() {
	si.d.stop()
	os.RemoveAll(si.dataDir)
}
