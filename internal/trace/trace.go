// Package trace implements the capture-once / replay-many layer between the
// functional emulator and the timing simulator. The paper instrumented each
// binary once with ATOM and fed the recorded trace to the Jinks timing
// simulator for every machine configuration; this package plays the ATOM
// role: Capture runs the emulator to completion and records the dynamic
// instruction stream in a compact chunked encoding, and any number of
// Readers replay it — concurrently — into cpu.Sim.Run.
//
// The timing model consumes the Source interface, which a live emulator
// (Live), a recorded trace (Reader) and a streamed artifact (Stream) all
// implement, so correctness never depends on a trace being available.
// Sources deliver blocks of records as column views rather than one
// emu.Dyn per call; Reader.Next is the one place a full emu.Dyn is rebuilt
// from the columns. The equivalence extends to the observability layer: a
// timing run publishes the identical obs.Event stream whether it is fed
// live or from a recording (enforced by TestTraceReplayEventEquivalence in
// the root package).
package trace

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Source is a stream of dynamic instructions plus the program they came
// from, delivered a block at a time. It is implemented by the live emulator
// (NewLive), by recorded traces (Trace.Reader) and by streamed artifacts
// (NewStream).
type Source interface {
	// Program returns the static program the stream executes.
	Program() *isa.Program
	// NextBlock returns the next run of at most max (>= 1) records. The
	// block is a read-only view valid until the next call on the source;
	// an empty block marks the end of the stream (or a fault; check Err).
	NextBlock(max int) Block
	// Err reports the fault that terminated the stream, if any.
	Err() error
}

// A Block is a run of consecutive records stored as struct-of-slices
// columns; it is also the storage form of one chunk of a recorded trace.
// Only the dynamic facts are stored: the static index, the vector length
// and branch outcome (one meta byte, decoded by Taken and VL), and — only
// for the records that need them — the effective address and vector
// stride. Everything else in emu.Dyn (opcode, class, branch target, element
// size/count) is a function of the static instruction.
type Block struct {
	SI     []int32  // static instruction index, per record
	Meta   []uint8  // vector length and branch outcome, per record
	EA     []uint64 // effective address, per memory record, in order
	Stride []int64  // byte stride, per vector-memory record, in order
}

// metaTaken flags a taken branch in the meta byte; the low five bits hold
// the vector length (0..MaxVL).
const metaTaken = 0x80

// Taken reports the branch outcome of record i.
func (b Block) Taken(i int) bool { return b.Meta[i]&metaTaken != 0 }

// VL returns the vector length governing record i (the element count of a
// vector memory access).
func (b Block) VL(i int) int { return int(b.Meta[i] &^ metaTaken) }

// add appends one dynamic instruction to the block's columns and returns
// its encoded size in bytes.
func (b *Block) add(d *emu.Dyn) int64 {
	b.SI = append(b.SI, int32(d.SI))
	meta := uint8(d.VL)
	if d.Taken {
		meta |= metaTaken
	}
	b.Meta = append(b.Meta, meta)
	n := int64(bytesPerRecord)
	if d.Class.IsMem() {
		b.EA = append(b.EA, d.EA)
		n += 8
		if d.Class == isa.ClassMomLoad || d.Class == isa.ClassMomStore {
			b.Stride = append(b.Stride, d.Stride)
			n += 8
		}
	}
	return n
}

// liveBlockRecords is how many instructions Live emulates per block, and
// Capture per emu.Machine.StepN batch: enough to amortise the call, small
// enough that the scratch records and columns stay in cache.
const liveBlockRecords = 256

// Live adapts a functional emulator into a Source (the interleaved
// emulate-and-time path). It is single-use: the machine advances as the
// timing model consumes it, and never past what was asked for.
type Live struct {
	m   *emu.Machine
	buf Block
	dyn [liveBlockRecords]emu.Dyn
}

// NewLive wraps a machine as a Source.
func NewLive(m *emu.Machine) *Live {
	return &Live{m: m, buf: Block{
		SI:     make([]int32, 0, liveBlockRecords),
		Meta:   make([]uint8, 0, liveBlockRecords),
		EA:     make([]uint64, 0, liveBlockRecords),
		Stride: make([]int64, 0, liveBlockRecords),
	}}
}

// Program returns the machine's program.
func (l *Live) Program() *isa.Program { return l.m.Prog }

// NextBlock executes up to max instructions into the scratch block. A fault
// ends the block early after the records before it.
func (l *Live) NextBlock(max int) Block {
	b := &l.buf
	b.SI, b.Meta, b.EA, b.Stride = b.SI[:0], b.Meta[:0], b.EA[:0], b.Stride[:0]
	n := l.m.StepN(l.dyn[:min(max, liveBlockRecords)])
	for i := range l.dyn[:n] {
		b.add(&l.dyn[i])
	}
	return *b
}

// Err returns the machine fault, if any.
func (l *Live) Err() error { return l.m.Err }

// chunkRecords is the number of records per chunk. Chunks keep the capture
// allocation pattern flat: no giant-slice doubling, no per-record
// allocation, and replay walks each column sequentially.
const chunkRecords = 1 << 15

// bytesPerRecord is the fixed per-record cost (si + meta).
const bytesPerRecord = 5

// Memory kind of a static instruction, for replay reconstruction.
const (
	memNone = iota
	memScalar
	memVector
)

// sinst is the per-static-instruction table used to rebuild emu.Dyn records.
type sinst struct {
	op     isa.Opcode
	class  isa.Class
	target int32
	size   uint8
	mem    uint8
}

// cursor is a position inside one chunk: the record index and the matching
// offsets into the sparse ea and stride columns.
type cursor struct {
	ri, eaI, strI int
}

// skip advances the cursor n records inside c, one static-table lookup per
// record to keep the sparse column offsets aligned.
func (k *cursor) skip(c *Block, static []sinst, n int) {
	for _, si := range c.SI[k.ri : k.ri+n] {
		switch static[si].mem {
		case memScalar:
			k.eaI++
		case memVector:
			k.eaI++
			k.strI++
		}
	}
	k.ri += n
}

// take returns the next at most max records of c as a view and advances
// the cursor past them: in O(1) when the view runs to the chunk's end, by
// one static-table lookup per record when max cuts the chunk.
func (k *cursor) take(c *Block, static []sinst, max int) Block {
	from := *k
	if max < len(c.SI)-k.ri {
		k.skip(c, static, max)
	} else {
		*k = cursor{len(c.SI), len(c.EA), len(c.Stride)}
	}
	return Block{
		SI:     c.SI[from.ri:k.ri],
		Meta:   c.Meta[from.ri:k.ri],
		EA:     c.EA[from.eaI:k.eaI],
		Stride: c.Stride[from.strI:k.strI],
	}
}

// Trace is a recorded dynamic instruction stream. The recording itself is
// immutable after Capture returns, so any number of Readers may replay it
// concurrently; the aux map is a synchronized side cache for derived
// artifacts (see Aux) and never affects replay.
type Trace struct {
	prog   *isa.Program
	static []sinst
	chunks []Block
	n      uint64
	bytes  int64

	auxMu sync.Mutex
	aux   map[any]any
}

// Aux returns the value cached under key by SetAux. Consumers use it to
// memoize expensive artifacts derived deterministically from the recording
// (decoded static tables, sampled-simulation checkpoint libraries) so
// repeated replays of the same trace pay the derivation once. Keys follow
// the context.Value convention: package-private struct types.
func (t *Trace) Aux(key any) (any, bool) {
	t.auxMu.Lock()
	defer t.auxMu.Unlock()
	v, ok := t.aux[key]
	return v, ok
}

// SetAux caches val under key for Aux. Values must be deterministic
// functions of the recording and key (concurrent computations of the same
// key may race to store; either result must be equivalent) and must be
// safe for concurrent read-only use.
func (t *Trace) SetAux(key, val any) {
	t.auxMu.Lock()
	defer t.auxMu.Unlock()
	if t.aux == nil {
		t.aux = make(map[any]any)
	}
	t.aux[key] = val
}

// ErrTooLarge is returned by Capture when the encoded trace would exceed
// the byte budget; callers fall back to live interleaved emulation.
var ErrTooLarge = errors.New("trace: exceeds memory budget")

// buildStatic precomputes the replay reconstruction table for a program.
func buildStatic(p *isa.Program) []sinst {
	st := make([]sinst, len(p.Insts))
	for i := range p.Insts {
		in := &p.Insts[i]
		info := in.Op.Info()
		s := &st[i]
		s.op, s.class, s.target = in.Op, info.Class, int32(in.Target)
		switch info.Class {
		case isa.ClassLoad, isa.ClassStore:
			s.mem, s.size = memScalar, uint8(in.Op.ElemSize())
		case isa.ClassMomLoad, isa.ClassMomStore:
			s.mem, s.size = memVector, uint8(in.Op.ElemSize())
		}
	}
	return st
}

// Capture runs the machine to completion, recording its dynamic stream.
// It fails if the program faults, exceeds maxSteps dynamic instructions, or
// (when maxBytes > 0) the encoding grows past maxBytes.
func Capture(m *emu.Machine, maxSteps uint64, maxBytes int64) (*Trace, error) {
	var have int64
	tr, _, err := CaptureGranted(m, maxSteps, func(n int64) bool {
		if maxBytes > 0 && have+n > maxBytes {
			return false
		}
		have += n
		return true
	})
	return tr, err
}

// Grant sizes of CaptureGranted: memory is reserved a quantum at a time so
// concurrent captures sharing one budget interleave small reservations
// instead of each claiming the whole remainder up front; near exhaustion
// the requests drop to the fine quantum so a trace that fits the leftover
// budget (to within grantFine bytes) is still admitted.
const (
	grantQuantum = 256 << 10
	grantFine    = 4 << 10
)

// CaptureInfo describes one finished capture attempt to an observer
// registered with SetCaptureHook: which program was recorded, when the
// capture started and how long it ran, and — on success — the encoded
// size and record count. Err is non-nil for faults and budget discards.
type CaptureInfo struct {
	Program  string
	Start    time.Time
	Duration time.Duration
	Bytes    int64
	Records  uint64
	Err      error
}

// captureHook is consulted once per capture attempt; nil costs one atomic
// load, so instrumentation is free when nobody listens.
var captureHook atomic.Pointer[func(CaptureInfo)]

// SetCaptureHook registers a process-wide observer called after every
// capture attempt (trace.Capture and trace.CaptureGranted alike) with its
// span: start time, wall-clock duration, outcome. The momserved flight
// recorder uses it to attribute trace-capture time inside job timelines.
// Pass nil to remove the hook. The hook must be safe for concurrent calls.
func SetCaptureHook(h func(CaptureInfo)) {
	if h == nil {
		captureHook.Store(nil)
		return
	}
	captureHook.Store(&h)
}

// CaptureGranted is Capture drawing its memory from an external budget:
// reserve is called with grant requests as the encoding grows, and may
// refuse, which aborts the capture with an error wrapping ErrTooLarge.
// granted reports the total bytes reserved — surplus over tr.Bytes() on
// success, everything on failure; releasing it back to the budget is the
// caller's responsibility.
func CaptureGranted(m *emu.Machine, maxSteps uint64, reserve func(int64) bool) (tr *Trace, granted int64, err error) {
	if h := captureHook.Load(); h != nil {
		start := time.Now()
		defer func() {
			info := CaptureInfo{Program: m.Prog.Name, Start: start, Duration: time.Since(start), Err: err}
			if tr != nil {
				info.Bytes, info.Records = tr.bytes, tr.n
			}
			(*h)(info)
		}()
	}
	return captureGranted(m, maxSteps, reserve)
}

func captureGranted(m *emu.Machine, maxSteps uint64, reserve func(int64) bool) (tr *Trace, granted int64, err error) {
	t := &Trace{prog: m.Prog}
	var c *Block
	var bytes int64
	var ds [liveBlockRecords]emu.Dyn
	for {
		// Emulate at most maxSteps+1 records in all: the one past the
		// limit is the proof that the program exceeds it.
		batch := ds[:]
		if left := maxSteps - t.n; left < uint64(len(batch)) {
			batch = batch[:left+1]
		}
		batch = batch[:m.StepN(batch)]
		if len(batch) == 0 {
			break
		}
		for i := range batch {
			if t.n >= maxSteps {
				return nil, granted, fmt.Errorf("trace: %s exceeded %d steps", m.Prog.Name, maxSteps)
			}
			if c == nil || len(c.SI) == chunkRecords {
				t.chunks = append(t.chunks, Block{
					SI:   make([]int32, 0, chunkRecords),
					Meta: make([]uint8, 0, chunkRecords),
				})
				c = &t.chunks[len(t.chunks)-1]
			}
			bytes += c.add(&batch[i])
			t.n++
			for bytes > granted {
				switch {
				case reserve(grantQuantum):
					granted += grantQuantum
				case reserve(grantFine):
					granted += grantFine
				default:
					return nil, granted, fmt.Errorf("%w: %s needs more than %d bytes", ErrTooLarge, m.Prog.Name, granted)
				}
			}
		}
	}
	if m.Err != nil {
		return nil, granted, m.Err
	}
	t.static = buildStatic(m.Prog)
	t.bytes = bytes
	return t, granted, nil
}

// Program returns the traced program.
func (t *Trace) Program() *isa.Program { return t.prog }

// Records returns the number of dynamic instructions recorded.
func (t *Trace) Records() uint64 { return t.n }

// Chunks returns the number of storage chunks.
func (t *Trace) Chunks() int { return len(t.chunks) }

// Bytes returns the approximate encoded size in memory.
func (t *Trace) Bytes() int64 { return t.bytes }

// Reader returns a fresh replay cursor over the trace. Readers are
// independent: many may replay the same trace concurrently.
func (t *Trace) Reader() *Reader { return &Reader{t: t} }

// ReaderAt returns a replay cursor positioned after the first pos records,
// as if Reader() had been followed by Skip(pos) — but without walking the
// skipped prefix. Because every chunk except the last holds exactly
// chunkRecords records, the target chunk is found by division; only the
// consumed prefix of that one chunk is walked to align the ea/stride
// cursors (at most chunkRecords static-table lookups). The skipped count
// starts at zero: ReaderAt positions, it does not fast-forward.
func (t *Trace) ReaderAt(pos uint64) *Reader {
	if pos > t.n {
		pos = t.n
	}
	r := &Reader{t: t, pos: pos, ci: int(pos / chunkRecords)}
	if r.ci < len(t.chunks) {
		r.skip(&t.chunks[r.ci], t.static, int(pos%chunkRecords))
	}
	return r
}

// Cursor is an O(1) resume point for a position a Reader has already
// reached: unlike ReaderAt, which must walk the chunk prefix to realign
// the sparse ea/stride columns, a cursor carries the column offsets
// directly. Capture it with Reader.Cursor at the position of interest and
// reopen any number of independent readers there with ReaderAtCursor.
type Cursor struct {
	pos       uint64
	eaI, strI int
}

// Pos returns the stream position the cursor marks.
func (c Cursor) Pos() uint64 { return c.pos }

// Cursor captures the reader's current position for ReaderAtCursor.
func (r *Reader) Cursor() Cursor { return Cursor{pos: r.pos, eaI: r.eaI, strI: r.strI} }

// ReaderAtCursor opens a new reader at a previously captured cursor in
// O(1). The cursor must have been captured from a reader over the same
// trace.
func (t *Trace) ReaderAtCursor(c Cursor) *Reader {
	return &Reader{
		t: t, pos: c.pos, ci: int(c.pos / chunkRecords),
		cursor: cursor{ri: int(c.pos % chunkRecords), eaI: c.eaI, strI: c.strI},
	}
}

// Reader replays a recorded trace as a Source. Besides the block protocol
// it offers per-record reconstruction (Next) and the fast-forward cursors
// of sampled simulation (Skip, WarmNext).
type Reader struct {
	t       *Trace
	ci      int    // chunk index
	cursor         // position within chunk ci
	pos     uint64 // records consumed (NextBlock, Next, Skip, WarmNext)
	skipped uint64 // records consumed by Skip and WarmNext only
}

// Program returns the traced program.
func (r *Reader) Program() *isa.Program { return r.t.prog }

// Trace returns the recording this reader replays, so a consumer handed a
// Reader can open further cursors over the same trace (see Trace.ReaderAt).
func (r *Reader) Trace() *Trace { return r.t }

// Err always returns nil: only complete, fault-free runs are recorded.
func (r *Reader) Err() error { return nil }

// Pos returns how many records have been consumed so far, whether by Next
// or by Skip.
func (r *Reader) Pos() uint64 { return r.pos }

// Skipped returns how many of the consumed records were fast-forwarded by
// Skip or WarmNext rather than delivered by NextBlock or Next — the span of
// the trace the consumer never timed (momtrace -stats reports it; it is
// zero for full replays).
func (r *Reader) Skipped() uint64 { return r.skipped }

// chunk returns the chunk holding the next record, stepping past exhausted
// chunks; nil at end of stream.
func (r *Reader) chunk() *Block {
	for r.ci < len(r.t.chunks) {
		if c := &r.t.chunks[r.ci]; r.ri < len(c.SI) {
			return c
		}
		r.ci++
		r.cursor = cursor{}
	}
	return nil
}

// NextBlock returns a view of up to max records of the current chunk; it
// never spans two chunks.
func (r *Reader) NextBlock(max int) Block {
	c := r.chunk()
	if c == nil {
		return Block{}
	}
	b := r.take(c, r.t.static, max)
	r.pos += uint64(len(b.SI))
	return b
}

// Skip advances the cursor past up to n records without reconstructing
// them, returning how many were actually skipped (fewer than n only at end
// of stream). Chunk tails are skipped in O(1); a record inside a partially
// consumed span costs one static-table lookup to keep the ea/stride
// cursors aligned for the next reconstructed record.
func (r *Reader) Skip(n uint64) uint64 {
	var done uint64
	for done < n {
		c := r.chunk()
		if c == nil {
			break
		}
		done += uint64(len(r.take(c, r.t.static, int(min(n-done, chunkRecords))).SI))
	}
	r.pos += done
	r.skipped += done
	return done
}

// WarmSink receives the warming-relevant content of fast-forwarded records
// (see Reader.WarmNext): branch outcomes for predictor/BTB training and
// memory footprints for cache-tag touches. ALU records carry no long-lived
// state and are never delivered.
type WarmSink interface {
	// WarmBranch reports a branch record: its static index and outcome.
	WarmBranch(si int, taken bool)
	// WarmScalar reports a scalar memory record.
	WarmScalar(ea uint64, size int, store bool)
	// WarmVector reports a vector memory record (nelem = vector length).
	WarmVector(ea uint64, stride int64, nelem int, store bool)
}

// WarmNext advances up to n records, feeding each branch and memory record
// to sink and discarding the rest after a single static-table class check —
// the fast-forward cursor of sampled simulation. Like Skip, the consumed
// records count as skipped: they were never reconstructed for timing. It
// returns how many records were consumed (fewer than n only at end of
// stream).
func (r *Reader) WarmNext(n uint64, sink WarmSink) uint64 {
	var done uint64
	static := r.t.static
	for done < n {
		c := r.chunk()
		if c == nil {
			break
		}
		take := min(n-done, uint64(len(c.SI)-r.ri))
		for k := uint64(0); k < take; k++ {
			si := c.SI[r.ri]
			s := &static[si]
			switch {
			case s.mem == memScalar:
				sink.WarmScalar(c.EA[r.eaI], int(s.size), s.class == isa.ClassStore)
				r.eaI++
			case s.mem == memVector:
				sink.WarmVector(c.EA[r.eaI], c.Stride[r.strI], c.VL(r.ri), s.class == isa.ClassMomStore)
				r.eaI++
				r.strI++
			case s.class == isa.ClassBranch:
				sink.WarmBranch(int(si), c.Taken(r.ri))
			}
			r.ri++
		}
		done += take
	}
	r.pos += done
	r.skipped += done
	return done
}

// Next reconstructs the next dynamic instruction from the trace as a full
// emu.Dyn — the per-record form for consumers outside the timing core
// (momtrace -stats, layer benchmarks, equivalence tests).
func (r *Reader) Next() (emu.Dyn, bool) {
	c := r.chunk()
	if c == nil {
		return emu.Dyn{}, false
	}
	i := r.ri
	r.ri++
	r.pos++
	s := &r.t.static[c.SI[i]]
	d := emu.Dyn{
		SI:    int(c.SI[i]),
		Op:    s.op,
		Class: s.class,
		Taken: c.Taken(i),
		VL:    c.VL(i),
	}
	if s.class == isa.ClassBranch {
		d.Target = int(s.target)
	}
	switch s.mem {
	case memScalar:
		d.EA = c.EA[r.eaI]
		r.eaI++
		d.NElem, d.Size = 1, int(s.size)
	case memVector:
		d.EA = c.EA[r.eaI]
		r.eaI++
		d.Stride = c.Stride[r.strI]
		r.strI++
		d.NElem, d.Size = d.VL, int(s.size)
	}
	return d, true
}
