package cpu

import (
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Result summarises one timed run.
type Result struct {
	Cycles      int64
	Insts       uint64
	WordOps     uint64 // packed-word operations (vector ops count VL words)
	Branches    uint64
	Mispredicts uint64
	BTBMisses   uint64
	Loads       uint64
	Stores      uint64
	ByClass     [16]uint64 // graduated instructions per isa.Class
	Mem         mem.Stats
	Profile     Profile
	// Sampled is non-nil only for RunSampled runs; it describes the sampling
	// regime and the statistical quality of the estimate. For sampled runs
	// Cycles/Insts/WordOps/Profile cover the measured intervals only (so IPC
	// and the attribution identity stay exact), while Mem covers every
	// detailed-simulated access including warmup prefixes.
	Sampled *Sampled
}

// Profile attributes every simulated cycle to the machine structure that
// bounded forward progress during it. The commit stage is in order, so the
// simulated time is exactly the path of the commit frontier: whenever the
// frontier advances past a cycle in which nothing graduated, that cycle was
// lost to whichever constraint held back the instruction that eventually
// advanced it. The buckets always sum to Result.Cycles — the identity every
// profile consumer (and TestProfileAttributionIdentity) relies on.
type Profile struct {
	// Commit counts cycles in which at least one instruction graduated.
	Commit int64
	// Frontend counts cycles lost refilling the fetch/decode pipe: initial
	// fill, taken-branch fetch breaks and BTB-miss bubbles.
	Frontend int64
	// Mispredict counts cycles lost to branch-mispredict redirects.
	Mispredict int64
	// RenameROB counts dispatch stalls on a full ROB, LSQ or exhausted
	// physical (rename) registers.
	RenameROB int64
	// IssueQueue counts cycles waiting for an issue slot (issue-width
	// contention among ready instructions).
	IssueQueue int64
	// FU counts cycles waiting for a functional unit or vector lane.
	FU int64
	// MemWait counts cycles waiting for load data (scalar or vector) to
	// return from the memory system.
	MemWait int64
	// StoreCommit counts commit stalls draining stores into the memory
	// system (write-buffer back-pressure at graduation).
	StoreCommit int64
	// DepLatency counts cycles serialised on data dependences and raw
	// execution latency with no structural resource at fault.
	DepLatency int64
}

// Total sums every bucket; it equals Result.Cycles for any completed run.
func (p Profile) Total() int64 {
	return p.Commit + p.Frontend + p.Mispredict + p.RenameROB +
		p.IssueQueue + p.FU + p.MemWait + p.StoreCommit + p.DepLatency
}

// IPC returns graduated instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// OPC returns packed-word operations per cycle (a fetch-pressure metric:
// MOM packs an order of magnitude more operations per instruction).
func (r Result) OPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.WordOps) / float64(r.Cycles)
}

// ---- resource helpers ----

// slots hands out up to width slots per cycle to requests whose earliest
// cycle is non-decreasing (fetch, dispatch, commit are in program order).
type slots struct {
	width int
	cycle int64
	used  int
}

func (s *slots) take(earliest int64) int64 {
	if earliest > s.cycle {
		s.cycle, s.used = earliest, 0
	}
	if s.used < s.width {
		s.used++
		return s.cycle
	}
	s.cycle++
	s.used = 1
	return s.cycle
}

// wideSlots hands out up to width slots per cycle for non-monotonic requests
// (issue is out of order). It is a ring of per-cycle counters anchored at
// the dispatch frontier, which lower-bounds every future request: advancing
// the frontier retires old cells, and the ring doubles if a request lands
// further ahead of the frontier than the current window covers.
type wideSlots struct {
	width int32
	base  int64   // cycle stored in slot base&mask
	used  []int32 // per-cycle issue counts; length is a power of two
	mask  int64
}

func newWideSlots(width int) *wideSlots {
	const n = 1 << 10
	return &wideSlots{width: int32(width), used: make([]int32, n), mask: n - 1}
}

// grow widens the window until cycle c fits, re-anchoring every live cell.
func (s *wideSlots) grow(c int64) {
	n := int64(len(s.used))
	for c-s.base >= n {
		n *= 2
	}
	wide := make([]int32, n)
	for cyc := s.base; cyc < s.base+int64(len(s.used)); cyc++ {
		wide[cyc&(n-1)] = s.used[cyc&s.mask]
	}
	s.used, s.mask = wide, n-1
}

func (s *wideSlots) take(earliest int64) int64 {
	c := earliest
	if c < s.base {
		c = s.base
	}
	if c-s.base >= int64(len(s.used)) {
		s.grow(c)
	}
	for s.used[c&s.mask] >= s.width {
		c++
		if c-s.base >= int64(len(s.used)) {
			s.grow(c)
		}
	}
	s.used[c&s.mask]++
	return c
}

// advance moves the window base to the dispatch frontier, clearing the
// cells that fall behind it (they can never be requested again).
func (s *wideSlots) advance(frontier int64) {
	if frontier <= s.base {
		return
	}
	if frontier-s.base >= int64(len(s.used)) {
		clear(s.used)
	} else {
		for c := s.base; c < frontier; c++ {
			s.used[c&s.mask] = 0
		}
	}
	s.base = frontier
}

// leastBusy returns the functional unit that frees first across pools a
// and b — a simple operation may also execute on a complex unit —
// preferring pool a, then the lower index, on ties; nil if both pools are
// empty. A pool holds one busy-until cycle (the first free cycle) per unit.
func leastBusy(a, b []int64) *int64 {
	var u *int64
	best := int64(1) << 62
	for i := range a {
		if a[i] < best {
			best, u = a[i], &a[i]
		}
	}
	for i := range b {
		if b[i] < best {
			best, u = b[i], &b[i]
		}
	}
	return u
}

// takeAll reserves every unit in the pool for occ cycles starting no
// earlier than t (multi-address vector accesses reserve all memory ports);
// it returns the actual start cycle.
func takeAll(units []int64, t, occ int64) int64 {
	start := t
	for _, b := range units {
		if b > start {
			start = b
		}
	}
	for i := range units {
		units[i] = start + occ
	}
	return start
}

// storeWindow tracks in-flight stores for load-store ordering.
type storeWindow struct {
	lo, hi []uint64 // address ranges [lo,hi)
	ready  []int64  // cycle store data is ready (forwarding source)
	head   int
}

func newStoreWindow(n int) *storeWindow {
	return &storeWindow{lo: make([]uint64, n), hi: make([]uint64, n), ready: make([]int64, n)}
}

func (w *storeWindow) add(lo, hi uint64, ready int64) {
	w.lo[w.head], w.hi[w.head], w.ready[w.head] = lo, hi, ready
	if w.head++; w.head == len(w.lo) {
		w.head = 0
	}
}

// conflictReady returns the latest data-ready time among stores overlapping
// [lo,hi), or 0 if none conflict.
func (w *storeWindow) conflictReady(lo, hi uint64) int64 {
	var r int64
	for i := range w.lo {
		if w.lo[i] < hi && lo < w.hi[i] && w.ready[i] > r {
			r = w.ready[i]
		}
	}
	return r
}

// vecRange computes the byte range touched by a strided vector access.
func vecRange(base uint64, stride int64, n, size int) (lo, hi uint64) {
	if n <= 0 {
		return base, base
	}
	last := base + uint64(int64(n-1)*stride)
	lo, hi = base, last
	if last < base {
		lo, hi = last, base
	}
	return lo, hi + uint64(size)
}

const regKeySpace = 8 * 64

func regKey(r isa.Reg) int { return int(r.Kind)<<6 | int(r.Idx) }

// Sim runs programs on one processor configuration and memory model.
// Obs, when non-nil, receives one obs.Event per dynamic instruction; a nil
// observer is free (Run only assembles events when one is attached, and no
// timing or counter depends on observation).
type Sim struct {
	Cfg Config
	Mem mem.Model
	Obs obs.Observer
}

// New creates a simulator from a configuration and a memory model.
func New(cfg Config, m mem.Model) *Sim {
	cfg.Validate()
	return &Sim{Cfg: cfg, Mem: m}
}

// staticInst caches the per-static-instruction facts the timing loop needs,
// hoisting the Op.Info() map lookups and DepsOf normalisation out of the
// per-dynamic-instruction path.
type staticInst struct {
	lat     int64
	class   isa.Class
	isMem   bool
	isVec   bool  // vector memory access (carries a stride; VL elements)
	isBR    bool  // unconditional branch (always predicted taken)
	size    uint8 // element size in bytes of a memory access
	dstKey  int32 // regKey of the destination, -1 if none
	dstKind isa.RegKind
	nsrc    uint8
	srcKeys [4]int32
}

// buildStatics computes the staticInst table for a program; it runs once
// per Run, then every dynamic instruction is a single slice index.
func buildStatics(p *isa.Program) []staticInst {
	sts := make([]staticInst, len(p.Insts))
	for i := range p.Insts {
		in := &p.Insts[i]
		info := in.Op.Info()
		dst, srcs := isa.DepsOf(in)
		st := &sts[i]
		st.lat, st.class = int64(info.Lat), info.Class
		st.isMem = info.Class.IsMem()
		st.isVec = st.isMem && info.Class.IsVector()
		if st.isMem {
			st.size = uint8(in.Op.ElemSize())
		}
		st.isBR = in.Op == isa.BR
		st.dstKey = -1
		if dst.Valid() {
			st.dstKey, st.dstKind = int32(regKey(dst)), dst.Kind
		}
		for _, src := range srcs {
			if !src.Valid() {
				break
			}
			st.srcKeys[st.nsrc] = int32(regKey(src))
			st.nsrc++
		}
	}
	return sts
}

// staticsAuxKey keys the memoized staticInst table in a trace's aux cache.
type staticsAuxKey struct{}

// staticsForTrace returns the staticInst table for a recorded trace,
// memoized on the trace: the table is a pure function of the immutable
// program, and rebuilding it (one Op.Info map lookup per static) otherwise
// dominates short sampled replays.
func staticsForTrace(tr *trace.Trace) []staticInst {
	if v, ok := tr.Aux(staticsAuxKey{}); ok {
		return v.([]staticInst)
	}
	sts := buildStatics(tr.Program())
	tr.SetAux(staticsAuxKey{}, sts)
	return sts
}

// staticsFor resolves the staticInst table for any source, memoizing via
// the trace when the source is a recorded-trace reader.
func staticsFor(src trace.Source) []staticInst {
	if rd, ok := src.(*trace.Reader); ok {
		return staticsForTrace(rd.Trace())
	}
	return buildStatics(src.Program())
}

// runState holds every piece of per-run mutable timing state. Pooling it
// (statePool) lets repeated runs — and the per-window restarts of sampled
// runs — reuse all allocations: after the first run of a given
// configuration, Run allocates only the statics table.
type runState struct {
	pred    *bimodal
	targets *btb

	// Functional-unit pools (see leastBusy), and per class the pools an
	// instruction of that class may issue to.
	intS, intC []int64
	fpS, fpC   []int64
	medS, medC []int64
	ports      []int64
	units      [16][2][]int64

	dispatchSlots slots
	commitSlots   slots
	issueSlots    *wideSlots

	robRing []int64
	lsqRing []int64
	lsqHead int

	renameRing [8][]int64
	renameHead [8]int

	lastWriter [regKeySpace]int64
	stores     *storeWindow

	// Span cursors: runSpan loads these into locals on entry and stores
	// them back on exit, so a run can be split across several spans.
	fetchCycle, lastDispatch, lastCommit int64
	fetchUsed                            int
	idx                                  uint64

	// Cycle-attribution state: profFrontier is the last cycle already
	// accounted for (-1 before anything commits, so the telescoping sum of
	// frontier advances is exactly lastCommit+1 == Cycles), and
	// redirectCycle marks a fetch cycle installed by a mispredict redirect
	// so the refill bubble is attributed to Mispredict, not Frontend.
	profFrontier, redirectCycle int64

	// ev is the observer event scratch; observers that retain an event past
	// the Observe call must copy it (the obs contract), so reusing one
	// backing struct per state is safe and keeps the hot loop allocation-free.
	ev obs.Event
}

var statePool sync.Pool

// acquireState returns a runState sized and reset for cfg, reusing pooled
// allocations when the sizes match.
func acquireState(cfg *Config) *runState {
	rs, _ := statePool.Get().(*runState)
	if rs == nil {
		rs = &runState{}
	}
	rs.ensure(cfg)
	return rs
}

func releaseState(rs *runState) { statePool.Put(rs) }

// ensureRing resizes (or clears) an int64 ring or unit pool; n <= 0 yields
// nil, which the rename path tests for (a nil ring means unlimited
// in-flight writes).
func ensureRing(r []int64, n int) []int64 {
	if n <= 0 {
		return nil
	}
	if len(r) != n {
		return make([]int64, n)
	}
	clear(r)
	return r
}

// reset re-anchors the issue window at base, clearing every cell but keeping
// any grown capacity.
func (s *wideSlots) reset(base int64) {
	clear(s.used)
	s.base = base
}

// reset clears the in-flight store window.
func (w *storeWindow) reset() {
	clear(w.lo)
	clear(w.hi)
	clear(w.ready)
	w.head = 0
}

// ensure makes the state match cfg's structure sizes and resets everything
// to run-start values (identical to a freshly allocated state).
func (rs *runState) ensure(cfg *Config) {
	if rs.pred != nil && len(rs.pred.ctr) == cfg.BimodalSize {
		for i := range rs.pred.ctr {
			rs.pred.ctr[i] = 1
		}
	} else {
		rs.pred = newBimodal(cfg.BimodalSize)
	}
	if rs.targets != nil && len(rs.targets.tag) == cfg.BTBEntries {
		for i := range rs.targets.tag {
			rs.targets.tag[i] = -1
		}
	} else {
		rs.targets = newBTB(cfg.BTBEntries)
	}

	rs.intS = ensureRing(rs.intS, cfg.IntSimple)
	rs.intC = ensureRing(rs.intC, cfg.IntComplex)
	rs.fpS = ensureRing(rs.fpS, cfg.FPSimple)
	rs.fpC = ensureRing(rs.fpC, cfg.FPComplex)
	rs.medS = ensureRing(rs.medS, cfg.MedSimple)
	rs.medC = ensureRing(rs.medC, cfg.MedComplex)
	rs.ports = ensureRing(rs.ports, cfg.MemPorts)
	rs.units = [16][2][]int64{
		isa.ClassIntSimple:  {rs.intS, rs.intC},
		isa.ClassBranch:     {rs.intS, rs.intC},
		isa.ClassCtl:        {rs.intS, rs.intC},
		isa.ClassIntComplex: {rs.intC},
		isa.ClassFPSimple:   {rs.fpS, rs.fpC},
		isa.ClassFPComplex:  {rs.fpC},
		isa.ClassMedSimple:  {rs.medS, rs.medC},
		isa.ClassMomSimple:  {rs.medS, rs.medC},
		isa.ClassMedComplex: {rs.medC},
		isa.ClassMomComplex: {rs.medC},
		isa.ClassLoad:       {rs.ports},
		isa.ClassStore:      {rs.ports},
		isa.ClassMomLoad:    {rs.ports},
		isa.ClassMomStore:   {rs.ports},
	}

	rs.dispatchSlots = slots{width: cfg.Width}
	rs.commitSlots = slots{width: cfg.Width}
	if rs.issueSlots != nil && rs.issueSlots.width == int32(cfg.Width) {
		rs.issueSlots.reset(0)
	} else {
		rs.issueSlots = newWideSlots(cfg.Width)
	}

	rs.robRing = ensureRing(rs.robRing, cfg.ROBSize)
	rs.lsqRing = ensureRing(rs.lsqRing, cfg.LSQSize)
	rs.lsqHead = 0
	for k := isa.RegKind(0); k < 8; k++ {
		rs.renameRing[k] = ensureRing(rs.renameRing[k], cfg.inFlight(k))
		rs.renameHead[k] = 0
	}
	clear(rs.lastWriter[:])
	if rs.stores != nil && len(rs.stores.lo) == cfg.LSQSize {
		rs.stores.reset()
	} else {
		rs.stores = newStoreWindow(cfg.LSQSize)
	}

	rs.fetchCycle, rs.lastDispatch, rs.lastCommit = 0, 0, 0
	rs.fetchUsed = 0
	rs.idx = 0
	rs.profFrontier, rs.redirectCycle = -1, -1
}

// Run consumes a dynamic instruction stream to completion (or maxInsts
// dynamic instructions, whichever comes first) under the timing model and
// returns the result. The source may be a live emulator (trace.NewLive) or
// a recorded trace reader — both produce identical results; a fresh source
// must be supplied for a fresh run.
func (s *Sim) Run(src trace.Source, maxInsts uint64) (Result, error) {
	statics := staticsFor(src)
	rs := acquireState(&s.Cfg)
	defer releaseState(rs)

	var res Result
	if _, err := s.runSpan(rs, src, statics, &res, maxInsts, s.Obs); err != nil {
		return res, err
	}

	res.Cycles = rs.lastCommit + 1
	res.Insts = rs.idx
	if rs.idx == 0 {
		// Nothing committed: the whole (degenerate) run was front-end time.
		res.Profile.Frontend = res.Cycles
	}
	res.Mem = s.Mem.Stats()
	return res, src.Err()
}

// maxPull bounds one NextBlock request; sources return at most one chunk
// (or one live block) per call anyway.
const maxPull = 1 << 30

// runSpan advances the detailed pipeline until rs.idx reaches limit, the
// stream ends (more == false) or the source faults. Counters and profile
// buckets accumulate into res; Cycles/Insts/Mem finalisation is the
// caller's job, which is what lets Run and the sampled-window controller
// share the exact same loop. Records arrive in blocks of trace columns; a
// block never holds more records than the span still needs, so a span
// consumes exactly limit-rs.idx records of a long enough stream.
func (s *Sim) runSpan(rs *runState, src trace.Source, statics []staticInst, res *Result, limit uint64, observer obs.Observer) (more bool, err error) {
	cfg := &s.Cfg
	memModel := s.Mem
	allPorts := memModel.VectorReservesAllPorts()

	pred, targets := rs.pred, rs.targets
	units := &rs.units
	ports := rs.ports
	dispatchSlots, commitSlots := &rs.dispatchSlots, &rs.commitSlots
	issueSlots := rs.issueSlots
	robRing, lsqRing := rs.robRing, rs.lsqRing
	robHead := int(rs.idx % uint64(len(robRing)))
	lsqHead := rs.lsqHead
	renameRing := &rs.renameRing
	renameHead := &rs.renameHead
	lastWriter := &rs.lastWriter
	stores := rs.stores

	fetchCycle, lastDispatch, lastCommit := rs.fetchCycle, rs.lastDispatch, rs.lastCommit
	fetchUsed := rs.fetchUsed
	idx := rs.idx
	prof := &res.Profile
	profFrontier, redirectCycle := rs.profFrontier, rs.redirectCycle

	vecRate := cfg.MemPorts * cfg.MemPortLanes

	// Observer scratch, hoisted out of the loop: memBefore only holds a
	// meaningful snapshot within one iteration, guarded by observer != nil.
	var memBefore mem.Stats

	more = true
loop:
	for idx < limit {
		blk := src.NextBlock(int(min(limit-idx, maxPull)))
		if len(blk.SI) == 0 {
			more = false
			break
		}
		eaI, strI := 0, 0
		for i, si := range blk.SI {
			st := &statics[si]
			res.ByClass[st.class]++

			// The record's memory operands, from the sparse columns.
			var ea uint64
			var stride int64
			size := int(st.size)
			isMem := st.isMem
			if isMem {
				ea = blk.EA[eaI]
				eaI++
				if st.isVec {
					stride = blk.Stride[strI]
					strI++
				}
			}

			// ---- fetch ----
			if fetchUsed >= cfg.Width {
				fetchCycle++
				fetchUsed = 0
			}
			f := fetchCycle
			fetchUsed++

			// ---- dispatch (rename + ROB/LSQ allocation) ----
			earliest := f + int64(cfg.FrontDepth)
			frontWait := earliest - lastDispatch // fetch arrived behind dispatch
			if frontWait < 0 {
				frontWait = 0
			}
			if earliest < lastDispatch {
				earliest = lastDispatch
			}
			flowEarliest := earliest
			if c := robRing[robHead]; c+1 > earliest {
				earliest = c + 1
			}
			if isMem {
				if c := lsqRing[lsqHead]; c+1 > earliest {
					earliest = c + 1
				}
			}
			if st.dstKey >= 0 {
				ring := renameRing[st.dstKind]
				if ring != nil {
					if c := ring[renameHead[st.dstKind]]; c+1 > earliest {
						earliest = c + 1
					}
				}
			}
			structWait := earliest - flowEarliest // ROB/LSQ/rename back-pressure
			dispatch := dispatchSlots.take(earliest)
			frontWait += dispatch - earliest // dispatch-width overflow
			lastDispatch = dispatch
			issueSlots.advance(dispatch)

			// ---- operand readiness ----
			ready := dispatch + 1
			for _, key := range st.srcKeys[:st.nsrc] {
				if t := lastWriter[key]; t > ready {
					ready = t
				}
			}

			// ---- issue + execute ----
			// Alongside the timing, the stage records how long the
			// instruction waited at each step (fuWait: unit busy, issWait: no
			// issue slot, memWait: load data outstanding) for the cycle
			// attribution below, and the cycle it won an issue slot (issueAt)
			// for the observer.
			var complete int64
			var issWait, fuWait, memWait, issueAt int64
			if observer != nil && isMem {
				memBefore = memModel.Stats()
			}
			if st.class == isa.ClassNop {
				complete = ready
				issueAt = ready
			} else {
				// The instruction waits for the least-busy unit of its class
				// and an issue slot, then holds the unit for occ cycles: a
				// matrix operation executes VL word-operations on one
				// multimedia unit at MedLanes words per cycle, and the port
				// splits an unaligned load into two aligned accesses. A
				// vector access on a model that needs it instead reserves
				// every memory port for its whole element stream.
				occ := int64(1)
				switch st.class {
				case isa.ClassMomSimple, isa.ClassMomComplex:
					occ = occupancy(blk.VL(i), cfg.MedLanes)
				case isa.ClassLoad:
					if unaligned(ea, size) {
						occ = 2
					}
				}
				u := leastBusy(units[st.class][0], units[st.class][1])
				if u == nil {
					err = fmt.Errorf("cpu: no functional unit for class %v", st.class)
					break loop
				}
				t0 := max(ready, *u)
				c := issueSlots.take(t0)
				issueAt = c
				var start int64
				if st.isVec && allPorts {
					start = takeAll(ports, c, occupancy(blk.VL(i), vecRate))
				} else {
					start = max(c, *u)
					*u = start + occ
				}
				fuWait, issWait = (t0-ready)+(start-c), c-t0

				switch st.class {
				case isa.ClassLoad:
					res.Loads++
					agDone := start + occ
					memDone := memModel.Load(agDone, ea, size)
					if fwd := stores.conflictReady(ea, ea+uint64(size)); fwd > 0 && fwd+1 > memDone {
						memDone = fwd + 1
					}
					complete = memDone
					memWait = complete - agDone
					res.WordOps++

				case isa.ClassStore:
					res.Stores++
					complete = max(start+1, ready)
					stores.add(ea, ea+uint64(size), complete)
					res.WordOps++

				case isa.ClassMomLoad:
					res.Loads++
					nelem := blk.VL(i)
					lo, hi := vecRange(ea, stride, nelem, size)
					memDone := memModel.LoadVector(start+1, ea, stride, nelem, vecRate)
					if fwd := stores.conflictReady(lo, hi); fwd > 0 && fwd+1 > memDone {
						memDone = fwd + 1
					}
					complete = memDone
					if memWait = complete - (start + occupancy(nelem, vecRate)); memWait < 0 {
						memWait = 0
					}
					res.WordOps += uint64(nelem)

				case isa.ClassMomStore:
					res.Stores++
					nelem := blk.VL(i)
					complete = max(start+occupancy(nelem, vecRate), ready)
					lo, hi := vecRange(ea, stride, nelem, size)
					stores.add(lo, hi, complete)
					res.WordOps += uint64(nelem)

				default:
					// The result is architecturally complete when the last
					// word drains.
					complete = start + occ - 1 + st.lat
					switch st.class {
					case isa.ClassMedSimple, isa.ClassMedComplex:
						res.WordOps++
					case isa.ClassMomSimple, isa.ClassMomComplex:
						res.WordOps += uint64(blk.VL(i))
					}
				}
			}

			// ---- commit (in order, width per cycle) ----
			preCommit := commitSlots.take(max(complete+1, lastCommit))
			commit := preCommit
			switch st.class {
			case isa.ClassStore:
				if acc := memModel.Store(commit, ea, size); acc > commit {
					commit = commitSlots.take(acc)
				}
			case isa.ClassMomStore:
				if acc := memModel.StoreVector(commit, ea, stride, blk.VL(i), vecRate); acc > commit {
					commit = commitSlots.take(acc)
				}
			}

			// ---- cycle attribution ----
			// The commit frontier advanced adv cycles while graduating this
			// instruction: one is the useful commit cycle, any gap between the
			// store-accept push and preCommit stalled on the write buffer, and
			// the rest is charged to the stage this instruction waited on
			// longest (ties go to the earlier pipeline stage in list order).
			var evCommitted, evExecGap, evStoreGap int64
			evBucket := obs.BucketDepLatency
			if adv := commit - profFrontier; adv > 0 {
				prof.Commit++
				evCommitted = 1
				execGap := preCommit - profFrontier - 1
				if execGap < 0 {
					execGap = 0
				}
				if storeGap := adv - 1 - execGap; storeGap > 0 {
					prof.StoreCommit += storeGap
					evStoreGap = storeGap
				}
				if execGap > 0 {
					cause, best := &prof.DepLatency, ready-(dispatch+1)
					bucket := obs.BucketDepLatency
					if frontWait > best {
						cause, best = &prof.Frontend, frontWait
						bucket = obs.BucketFrontend
						if f == redirectCycle {
							cause = &prof.Mispredict
							bucket = obs.BucketMispredict
						}
					}
					if structWait > best {
						cause, best = &prof.RenameROB, structWait
						bucket = obs.BucketRenameROB
					}
					if issWait > best {
						cause, best = &prof.IssueQueue, issWait
						bucket = obs.BucketIssueQueue
					}
					if fuWait > best {
						cause, best = &prof.FU, fuWait
						bucket = obs.BucketFU
					}
					if memWait > best {
						cause = &prof.MemWait
						bucket = obs.BucketMemWait
					}
					*cause += execGap
					evBucket = bucket
					evExecGap = execGap
				}
			}
			profFrontier = commit
			lastCommit = commit
			robRing[robHead] = commit
			if robHead++; robHead == len(robRing) {
				robHead = 0
			}
			if isMem {
				lsqRing[lsqHead] = commit
				if lsqHead++; lsqHead == len(lsqRing) {
					lsqHead = 0
				}
			}
			if st.dstKey >= 0 {
				lastWriter[st.dstKey] = complete
				if ring := renameRing[st.dstKind]; ring != nil {
					h := renameHead[st.dstKind]
					ring[h] = commit
					if h++; h == len(ring) {
						h = 0
					}
					renameHead[st.dstKind] = h
				}
			}

			if observer != nil {
				emitEvent(observer, memModel, &memBefore, &rs.ev, idx, int(si), blk.VL(i), blk.Taken(i), st,
					f, dispatch, issueAt, complete, commit,
					evCommitted, evBucket, evExecGap, evStoreGap)
			}

			// ---- branch resolution and fetch redirect ----
			if st.class == isa.ClassBranch {
				res.Branches++
				taken := blk.Taken(i)
				predTaken := st.isBR || pred.predict(int(si))
				btbHit := targets.hit(int(si))
				if !st.isBR {
					pred.update(int(si), taken)
				}
				if taken {
					targets.insert(int(si))
				}
				switch {
				case taken != predTaken:
					res.Mispredicts++
					r := complete + 1 + int64(cfg.MispredictPenalty)
					if r > fetchCycle {
						fetchCycle = r
						redirectCycle = r
					}
					fetchUsed = 0
				case taken && btbHit:
					// Correctly predicted taken: redirect next cycle, the
					// taken branch ends this fetch group.
					fetchCycle = f + 1
					fetchUsed = 0
				case taken: // predicted taken but BTB miss: decode-time bubble
					res.BTBMisses++
					fetchCycle = f + 2
					fetchUsed = 0
				}
			}
			idx++
		}
	}

	rs.lsqHead = lsqHead
	rs.fetchCycle, rs.lastDispatch, rs.lastCommit = fetchCycle, lastDispatch, lastCommit
	rs.fetchUsed = fetchUsed
	rs.idx = idx
	rs.profFrontier, rs.redirectCycle = profFrontier, redirectCycle
	return more, err
}

// emitEvent assembles and publishes one instruction's observability event.
// It is deliberately out-of-line (and must stay that way): keeping the
// event assembly out of Run's loop body keeps the nil-observer fast path's
// code layout untouched.
//
// The event struct is written through a caller-owned scratch pointer (the
// obs contract lets the core reuse backing storage), so the observed path
// allocates nothing per instruction either.
//
//go:noinline
func emitEvent(observer obs.Observer, memModel mem.Model, memBefore *mem.Stats,
	ev *obs.Event, idx uint64, si, vl int, taken bool, st *staticInst,
	f, dispatch, issueAt, complete, commit int64,
	evCommitted int64, evBucket obs.Bucket, evExecGap, evStoreGap int64) {
	*ev = obs.Event{
		Seq: idx, PC: si, Class: st.class, VL: vl, Taken: taken,
		Fetch: f, Dispatch: dispatch, Issue: issueAt,
		Complete: complete, Commit: commit,
		Committed: evCommitted, Bucket: evBucket,
		ExecGap: evExecGap, StoreGap: evStoreGap,
	}
	if st.isMem {
		ev.Mem = mem.Diff(*memBefore, memModel.Stats())
	}
	observer.Observe(ev)
}

// occupancy returns how many cycles n elements occupy at rate per cycle.
func occupancy(n, rate int) int64 {
	if n < 1 {
		return 1
	}
	if rate < 1 {
		rate = 1
	}
	return int64((n + rate - 1) / rate)
}

// unaligned reports whether a scalar access is misaligned for its size.
func unaligned(addr uint64, size int) bool {
	if size <= 1 {
		return false
	}
	return addr%uint64(size) != 0
}
