package comm

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"time"

	"gristgo/internal/mesh"
	"gristgo/internal/partition"
	"gristgo/internal/precision"
	"gristgo/internal/telemetry"
)

// Domain is one rank's view of a decomposed mesh: the owned cells, the
// halo cells it mirrors from peers, and local index translation. Local
// cell storage is [owned..., halo...]; LocalIndex maps a global cell id
// to its local slot.
type Domain struct {
	Rank   int
	Mesh   *mesh.Mesh
	Owned  []int32 // global ids, local slots [0, len(Owned))
	Halo   []int32 // global ids, local slots [len(Owned), ...)
	NLocal int

	LocalIndex map[int32]int32

	// For each peer (sorted): cells we send (our owned cells the peer
	// mirrors) and cells we receive (our halo cells owned by the peer),
	// both as local indices.
	PeerRanks []int
	SendIdx   [][]int32
	RecvIdx   [][]int32
}

// NewDomain builds rank p's domain view from a decomposition.
func NewDomain(m *mesh.Mesh, d *partition.Decomposition, p int) *Domain {
	dom := &Domain{
		Rank:  p,
		Mesh:  m,
		Owned: d.Owned[p],
		Halo:  d.Halo[p],
	}
	dom.NLocal = len(dom.Owned) + len(dom.Halo)
	dom.LocalIndex = make(map[int32]int32, dom.NLocal)
	for i, c := range dom.Owned {
		dom.LocalIndex[c] = int32(i)
	}
	for i, c := range dom.Halo {
		dom.LocalIndex[c] = int32(len(dom.Owned) + i)
	}

	// Receive lists come straight from the decomposition (halo cells per
	// peer). Send lists are the mirror image: the cells that peer q
	// mirrors from us are exactly the cells in q's halo owned by us.
	for q := range d.Peers[p] {
		dom.PeerRanks = append(dom.PeerRanks, int(q))
	}
	sort.Ints(dom.PeerRanks)
	for _, q := range dom.PeerRanks {
		recvCells := d.Peers[p][int32(q)]
		recv := make([]int32, len(recvCells))
		for i, c := range recvCells {
			recv[i] = dom.LocalIndex[c]
		}
		dom.RecvIdx = append(dom.RecvIdx, recv)

		sendCells := d.Peers[q][int32(p)] // cells q needs from us
		send := make([]int32, len(sendCells))
		for i, c := range sendCells {
			send[i] = dom.LocalIndex[c]
		}
		dom.SendIdx = append(dom.SendIdx, send)
	}
	return dom
}

// Field is a per-cell, per-level variable stored cell-major:
// Data[localCell*NLev + lev], so one cell's column is a contiguous
// block — the layout the exchange packer moves. NLev==1 gives a surface
// field.
type Field struct {
	Name string
	NLev int
	Data []float64
	dom  *Domain
}

// NewField allocates a field over the domain.
func (d *Domain) NewField(name string, nlev int) *Field {
	return &Field{Name: name, NLev: nlev, Data: make([]float64, nlev*d.NLocal), dom: d}
}

// At returns the value at (level, local cell).
func (f *Field) At(lev int, cell int32) float64 { return f.Data[int(cell)*f.NLev+lev] }

// Set stores the value at (level, local cell).
func (f *Field) Set(lev int, cell int32, v float64) { f.Data[int(cell)*f.NLev+lev] = v }

// varNode is one entry of the exchange list. The paper gathers the
// variables to exchange in a linked list so that a single communication
// call moves all of them (§3.1.3); we mirror that structure. Each node
// names the backing array, the per-entity stride, the index set its
// entities come from, and whether the variable is precision-sensitive
// (sensitive variables travel FP64 under every mode; insensitive ones
// travel FP32 under precision.Mixed — §3.4).
type varNode struct {
	name      string
	data      []float64
	stride    int
	set       int
	sensitive bool
	next      *varNode
}

// IndexSet is one family of exchanged entities (e.g. cells, edges): the
// per-peer entity indices to pack and unpack, aligned with the Layout's
// peer order; a nil list means no traffic with that peer for this set.
// Indices address entity blocks data[idx*stride : (idx+1)*stride] of
// every field registered on the set.
type IndexSet struct {
	Send [][]int32
	Recv [][]int32
}

// Layout is a complete halo-exchange layout — the peer list and every
// index set — derived from one decomposition epoch. It is the swappable
// decomposition handle of an elastic run: an exchanger built from a
// Layout keeps its registered fields and statistics across SwapLayout,
// and rebuilds per-peer byte plans (including the mixed wire-precision
// word sizes) from the new layout on the next round.
type Layout struct {
	Peers []int
	Sets  []IndexSet
}

// ExchangeStats reports the measured activity of an exchanger: completed
// rounds, bytes enqueued to peers, and time spent waiting for inbound
// messages in Finish — the inputs to the measured communication
// fraction of the performance model.
type ExchangeStats struct {
	Rounds    int
	BytesSent int64
	Wait      time.Duration
}

// HaloExchanger aggregates registered fields and exchanges all of their
// halos with one message per peer. Message layouts (per-peer offsets,
// word sizes, total bytes) are precomputed when registration settles,
// and pack/unpack run through persistent per-peer buffers, so a steady
// exchange round performs zero heap allocations.
//
// Exchange is the blocking round. The split Start/Finish pair overlaps
// communication with computation: Start packs a snapshot of the
// registered fields and posts all sends and receives; the caller then
// computes anything that does not read halo entities; Finish completes
// the receives and unpacks. Start/interior/Finish is bit-identical to
// the blocking Exchange because the outbound payload is sealed at Start.
type HaloExchanger struct {
	rank  *Rank
	mode  precision.Mode
	peers []int
	sets  []IndexSet
	head  *varNode // linked list of registered variables
	tag   int

	built     bool
	sendBytes []int64 // per peer
	recvBytes []int64
	sendBuf   [][]byte
	recvBuf   [][]byte
	recvReqs  []Request
	inFlight  bool

	// Deadline-bounded Finish (see SetDeadline): the reusable timer and
	// the timeout escalation hook.
	deadline  time.Duration
	dlTimer   *time.Timer
	onTimeout func()

	// statsMu guards stats: the owning rank updates them from Start and
	// Finish while a telemetry sampler may read or drain them from
	// another goroutine.
	statsMu sync.Mutex
	stats   ExchangeStats

	// Optional flight recorder: when set, Start/Finish emit pack, wait
	// and unpack spans attributed to telRank. telStep > 0 stamps spans
	// with an explicit per-rank step (see SetTelemetryStep).
	rec     *telemetry.Recorder
	telRank int32
	telStep int64
}

// NewExchangerWithLayout creates an exchanger bound to a rank, in the
// given precision mode, whose peers (sorted order must match across
// ranks) and index sets come from a decomposition-derived Layout; a set's
// id for RegisterSlice is its position in l.Sets. The layout can later be
// replaced wholesale with SwapLayout.
func NewExchangerWithLayout(r *Rank, mode precision.Mode, l *Layout) *HaloExchanger {
	h := &HaloExchanger{rank: r, mode: mode, tag: 100, sets: l.Sets}
	h.SwapLayout(l) // validates the layout
	return h
}

// NewHaloExchanger creates an exchanger for the domain bound to an MPI
// rank, with the domain's cell halo as index set 0 (DP mode; see
// SetMode).
func NewHaloExchanger(dom *Domain, r *Rank) *HaloExchanger {
	return NewExchangerWithLayout(r, precision.DP, dom.Layout())
}

// Layout returns the domain's halo layout: the peer list and the cell
// index set (set id 0).
func (d *Domain) Layout() *Layout {
	return &Layout{Peers: d.PeerRanks, Sets: []IndexSet{{Send: d.SendIdx, Recv: d.RecvIdx}}}
}

// SwapLayout rebinds the exchanger to a new decomposition epoch's layout:
// new peers, new per-peer index sets, same registered fields. The set
// count must match the layout the exchanger was built with (set ids are
// baked into the registered fields), and no round may be in flight. Byte
// plans, wire-precision word layouts and persistent buffers are rebuilt
// lazily on the next Start; the round tag keeps counting monotonically
// so pre- and post-swap rounds can never collide.
func (h *HaloExchanger) SwapLayout(l *Layout) {
	if h.inFlight {
		panic("comm: SwapLayout while a round is in flight")
	}
	if len(l.Sets) != len(h.sets) {
		panic("comm: SwapLayout set count does not match the registered layout")
	}
	for _, s := range l.Sets {
		if len(s.Send) != len(l.Peers) || len(s.Recv) != len(l.Peers) {
			panic("comm: index set lists must align with the peer list")
		}
	}
	h.peers, h.sets = l.Peers, l.Sets
	h.built = false
}

// SetMode switches the payload precision mode: under precision.Mixed,
// insensitive fields travel FP32.
func (h *HaloExchanger) SetMode(mode precision.Mode) {
	h.mode = mode
	h.built = false
}

// SetTelemetry attaches a flight recorder: every subsequent round emits
// halo_pack, halo_wait and halo_unpack spans attributed to rank. A nil
// recorder detaches.
func (h *HaloExchanger) SetTelemetry(rec *telemetry.Recorder, rank int32) {
	h.rec = rec
	h.telRank = rank
}

// SetTelemetryStep stamps subsequent round spans with an explicit model
// step (> 0) — SPMD ranks advance independently, so the driver bumps
// each rank's exchanger alongside its engine. Zero restores the
// recorder-wide shared step.
func (h *HaloExchanger) SetTelemetryStep(step int64) { h.telStep = step }

// span opens a round-phase span on the stamped per-rank step when one
// is set, else on the recorder's shared step.
//
//grist:hotpath
func (h *HaloExchanger) span(name string) telemetry.Span {
	if h.telStep > 0 {
		return h.rec.BeginAt(name, h.telRank, h.telStep)
	}
	return h.rec.Begin(name, h.telRank)
}

// RegisterSlice appends a raw entity-major array to the exchange list:
// data holds stride values per entity, indexed by the given set's
// entity ids. Sensitive variables always travel FP64; insensitive ones
// travel FP32 under precision.Mixed. Registration order must match
// across ranks (SPMD).
func (h *HaloExchanger) RegisterSlice(name string, data []float64, stride, set int, sensitive bool) {
	if set < 0 || set >= len(h.sets) {
		panic("comm: RegisterSlice on unknown index set")
	}
	node := &varNode{name: name, data: data, stride: stride, set: set, sensitive: sensitive}
	if h.head == nil {
		h.head = node
	} else {
		cur := h.head
		for cur.next != nil {
			cur = cur.next
		}
		cur.next = node
	}
	h.built = false
}

// Register appends a field to the exchange list as precision-sensitive
// (always FP64 on the wire).
func (h *HaloExchanger) Register(f *Field) {
	h.RegisterSlice(f.Name, f.Data, f.NLev, 0, true)
}

// RegisterInsensitive appends a field that travels FP32 under the Mixed
// mode.
func (h *HaloExchanger) RegisterInsensitive(f *Field) {
	h.RegisterSlice(f.Name, f.Data, f.NLev, 0, false)
}

// NumRegistered returns the number of fields on the exchange list.
func (h *HaloExchanger) NumRegistered() int {
	n := 0
	for cur := h.head; cur != nil; cur = cur.next {
		n++
	}
	return n
}

// wordBytes returns the wire word size of a registered variable under
// the exchanger's mode.
func (h *HaloExchanger) wordBytes(n *varNode) int {
	if n.sensitive || h.mode != precision.Mixed {
		return 8
	}
	return 4
}

// build precomputes the per-peer message layout and sizes the
// persistent buffers. Runs once per registration change.
func (h *HaloExchanger) build() {
	np := len(h.peers)
	h.sendBytes = make([]int64, np)
	h.recvBytes = make([]int64, np)
	for pi := range h.peers {
		var sb, rb int64
		for cur := h.head; cur != nil; cur = cur.next {
			wb := int64(h.wordBytes(cur)) * int64(cur.stride)
			sb += wb * int64(len(h.sets[cur.set].Send[pi]))
			rb += wb * int64(len(h.sets[cur.set].Recv[pi]))
		}
		h.sendBytes[pi] = sb
		h.recvBytes[pi] = rb
	}
	h.sendBuf = make([][]byte, np)
	h.recvBuf = make([][]byte, np)
	for pi := range h.peers {
		h.sendBuf[pi] = make([]byte, h.sendBytes[pi])
		h.recvBuf[pi] = make([]byte, h.recvBytes[pi])
	}
	h.recvReqs = make([]Request, np)
	h.built = true
}

// pack serializes every registered variable's send entities for peer pi
// into the persistent send buffer.
//
//grist:hotpath
func (h *HaloExchanger) pack(pi int) []byte {
	buf := h.sendBuf[pi]
	off := 0
	for cur := h.head; cur != nil; cur = cur.next {
		idx := h.sets[cur.set].Send[pi]
		stride := cur.stride
		if h.wordBytes(cur) == 8 {
			for _, e := range idx {
				base := int(e) * stride
				for k := 0; k < stride; k++ {
					binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(cur.data[base+k]))
					off += 8
				}
			}
		} else {
			for _, e := range idx {
				base := int(e) * stride
				for k := 0; k < stride; k++ {
					binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(cur.data[base+k])))
					off += 4
				}
			}
		}
	}
	if off != len(buf) {
		panic("comm: halo pack size mismatch")
	}
	return buf
}

// unpack deserializes peer pi's message into the registered variables'
// receive entities.
//
//grist:hotpath
func (h *HaloExchanger) unpack(pi int) {
	buf := h.recvBuf[pi]
	off := 0
	for cur := h.head; cur != nil; cur = cur.next {
		idx := h.sets[cur.set].Recv[pi]
		stride := cur.stride
		if h.wordBytes(cur) == 8 {
			for _, e := range idx {
				base := int(e) * stride
				for k := 0; k < stride; k++ {
					cur.data[base+k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
					off += 8
				}
			}
		} else {
			for _, e := range idx {
				base := int(e) * stride
				for k := 0; k < stride; k++ {
					cur.data[base+k] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off:])))
					off += 4
				}
			}
		}
	}
	if off != len(buf) {
		panic("comm: halo unpack size mismatch")
	}
}

// Start begins an exchange round: packs a snapshot of every registered
// variable and posts one send and one receive per peer. The caller may
// overwrite registered arrays freely until Finish, which completes the
// receives and unpacks into the halo entities.
func (h *HaloExchanger) Start() {
	if h.inFlight {
		panic("comm: HaloExchanger.Start while a round is in flight")
	}
	if !h.built {
		h.build()
	}
	tag := h.tag
	h.tag++ // unique tag per exchange round
	sp := h.span("halo_pack")
	var bytes int64
	for pi, q := range h.peers {
		h.rank.ISend(q, tag, h.pack(pi))
		bytes += h.sendBytes[pi]
	}
	for pi, q := range h.peers {
		h.recvReqs[pi] = h.rank.IRecv(q, tag, h.recvBuf[pi])
	}
	sp.End()
	h.statsMu.Lock()
	h.stats.BytesSent += bytes
	h.statsMu.Unlock()
	h.inFlight = true
}

// Finish completes the round begun by Start: waits for every peer's
// message and unpacks the halo entities.
//
//grist:hotpath
func (h *HaloExchanger) Finish() {
	if !h.inFlight {
		panic("comm: HaloExchanger.Finish without Start")
	}
	wsp := h.span("halo_wait")
	t0 := time.Now()
	if h.deadline > 0 {
		h.waitAllDeadline()
	} else {
		h.rank.WaitAll(h.recvReqs)
	}
	wait := time.Since(t0)
	wsp.End()
	usp := h.span("halo_unpack")
	for pi := range h.peers {
		h.unpack(pi)
	}
	usp.End()
	h.inFlight = false
	h.statsMu.Lock()
	h.stats.Wait += wait
	h.stats.Rounds++
	h.statsMu.Unlock()
}

// Exchange performs one blocking round: Start immediately followed by
// Finish.
func (h *HaloExchanger) Exchange() {
	h.Start()
	h.Finish()
}

// BytesPerExchange returns the number of bytes this rank sends in one
// exchange round, honoring each field's wire word size under the
// current mode — the input to the communication performance model and
// exactly the byte count enqueued by Start.
func (h *HaloExchanger) BytesPerExchange() int64 {
	if !h.built {
		h.build()
	}
	var total int64
	for pi := range h.peers {
		total += h.sendBytes[pi]
	}
	return total
}

// Stats returns a copy of the accumulated exchange statistics without
// resetting them.
func (h *HaloExchanger) Stats() ExchangeStats {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	return h.stats
}

// DrainStats atomically returns the accumulated statistics and resets
// them. Read-then-reset is one critical section, so a sampler draining
// periodically accounts every round and byte exactly once — no window
// is lost between a Stats read and a separate reset.
func (h *HaloExchanger) DrainStats() ExchangeStats {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	st := h.stats
	h.stats = ExchangeStats{}
	return st
}

// DrainTimings reports the accumulated wait time under "halo_wait" and
// resets the counters (the core.ComponentTimer contract). Callers that
// also need the byte and round counts should use DrainStats directly —
// one drain yields every counter from the same atomic window.
func (h *HaloExchanger) DrainTimings(emit func(name string, d time.Duration, calls int)) {
	st := h.DrainStats()
	if st.Rounds > 0 {
		emit("halo_wait", st.Wait, st.Rounds)
	}
}
