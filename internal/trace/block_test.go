package trace

// Block-protocol tests: whatever the pull size, draining NextBlock must
// deliver exactly the record sequence the per-record Reader.Next
// reconstructs, from every kind of source and cursor, and interleaved with
// the fast-forward cursors.

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
)

// rec is one record as the block columns carry it; ea and stride are zero
// for records that have none.
type rec struct {
	si     int32
	taken  bool
	vl     int
	ea     uint64
	stride int64
}

// recOf projects a reconstructed record onto the block columns.
func recOf(d emu.Dyn) rec {
	return rec{si: int32(d.SI), taken: d.Taken, vl: d.VL, ea: d.EA, stride: d.Stride}
}

// appendBlock flattens b into records, walking the sparse columns by the
// static memory kinds. It fails the test if a column is left over.
func appendBlock(t *testing.T, out []rec, b Block, static []sinst) []rec {
	t.Helper()
	var eaI, strI int
	for i, si := range b.SI {
		r := rec{si: si, taken: b.Taken(i), vl: b.VL(i)}
		switch static[si].mem {
		case memScalar:
			r.ea = b.EA[eaI]
			eaI++
		case memVector:
			r.ea, r.stride = b.EA[eaI], b.Stride[strI]
			eaI++
			strI++
		}
		out = append(out, r)
	}
	if eaI != len(b.EA) || strI != len(b.Stride) || len(b.Meta) != len(b.SI) {
		t.Fatalf("block columns out of step: %d records, %d/%d meta, %d/%d ea, %d/%d stride",
			len(b.SI), len(b.Meta), len(b.SI), eaI, len(b.EA), strI, len(b.Stride))
	}
	return out
}

// drainBlocks pulls src to its end in blocks of at most max records,
// checking the bound, and returns the flattened records.
func drainBlocks(t *testing.T, src Source, max int) []rec {
	t.Helper()
	static := buildStatic(src.Program())
	var out []rec
	for {
		b := src.NextBlock(max)
		if len(b.SI) == 0 {
			return out
		}
		if len(b.SI) > max {
			t.Fatalf("NextBlock(%d) returned %d records", max, len(b.SI))
		}
		out = appendBlock(t, out, b, static)
	}
}

// drainNext is the reference: the remaining records of r via Next.
func drainNext(r *Reader) []rec {
	var out []rec
	for {
		d, ok := r.Next()
		if !ok {
			return out
		}
		out = append(out, recOf(d))
	}
}

func sameRecs(t *testing.T, what string, got, want []rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d: %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// mixedProgram loops iters times over scalar and strided vector loads and
// stores under a varying vector length, with a data-dependent branch, so
// its trace fills every column and spans several chunks. With fault set it
// ends in a load from an unmapped address instead of halting.
func mixedProgram(iters int64, fault bool) *isa.Program {
	b := asm.New("mixed")
	b.Alloc("buf", 4096, 8)
	base, stride, ctr, tmp, acc := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5)
	b.MovI(base, int64(b.Sym("buf")))
	b.MovI(stride, 16)
	b.Loop(ctr, iters, func() {
		b.AndI(tmp, ctr, isa.MaxVL-1)
		b.AddI(tmp, tmp, 1)
		b.SetVL(tmp)
		b.MomLd(isa.V(0), base, stride, 0)
		b.Ldq(tmp, base, 8)
		b.Stb(tmp, base, 3)
		b.AndI(tmp, ctr, 3)
		b.If(tmp, func() { b.Add(acc, acc, ctr) }, nil)
		b.MomSt(isa.V(0), base, stride, 1024)
	})
	if fault {
		b.MovI(tmp, 1<<40)
		b.Ldq(tmp, tmp, 0)
	}
	return b.Build()
}

// pullSizes are the NextBlock bounds every source is drained with: single
// records, small and window-sized cuts, and bounds just under and over a
// chunk.
var pullSizes = []int{1, 7, 250, chunkRecords - 1, chunkRecords + 3}

func TestNextBlockMatchesNext(t *testing.T) {
	p := mixedProgram(9000, false)
	tr, err := Capture(emu.New(p), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Chunks() < 3 {
		t.Fatalf("test trace has %d chunks, want at least 3", tr.Chunks())
	}
	want := drainNext(tr.Reader())
	blob := encode(t, tr)
	n := tr.Records()
	mid := n/2 + 11

	for _, max := range pullSizes {
		sameRecs(t, "Reader", drainBlocks(t, tr.Reader(), max), want)

		r := tr.ReaderAt(mid)
		sameRecs(t, "ReaderAt", drainBlocks(t, r, max), want[mid:])
		if r.Pos() != n || r.Skipped() != 0 {
			t.Fatalf("ReaderAt drained: pos %d skipped %d, want %d and 0", r.Pos(), r.Skipped(), n)
		}

		at := tr.Reader()
		at.Skip(mid)
		sameRecs(t, "ReaderAtCursor", drainBlocks(t, tr.ReaderAtCursor(at.Cursor()), max), want[mid:])

		st, err := NewStream(bytes.NewReader(blob), p)
		if err != nil {
			t.Fatal(err)
		}
		sameRecs(t, "Stream", drainBlocks(t, st, max), want)
		if st.Err() != nil || st.Pos() != n {
			t.Fatalf("Stream drained: pos %d err %v, want %d and nil", st.Pos(), st.Err(), n)
		}

		live := NewLive(emu.New(p))
		sameRecs(t, "Live", drainBlocks(t, live, max), want)
		if live.Err() != nil {
			t.Fatal(live.Err())
		}
	}
}

// TestNextBlockInterleaved mixes NextBlock with Skip and WarmNext on one
// reader: the delivered records must be exactly the reference records at
// the positions the cursor passed through, and Pos/Skipped must account
// for every record.
func TestNextBlockInterleaved(t *testing.T) {
	tr, err := Capture(emu.New(mixedProgram(9000, false)), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := drainNext(tr.Reader())
	for _, max := range pullSizes {
		r := tr.Reader()
		static := tr.static
		var skipped uint64
		for step := 0; ; step++ {
			pos := r.Pos()
			switch step % 3 {
			case 0:
				b := r.NextBlock(max)
				if len(b.SI) == 0 {
					if pos != tr.Records() {
						t.Fatalf("max %d: empty block at %d of %d", max, pos, tr.Records())
					}
					if r.Skipped() != skipped {
						t.Fatalf("max %d: skipped %d, want %d", max, r.Skipped(), skipped)
					}
					return
				}
				sameRecs(t, "interleaved NextBlock", appendBlock(t, nil, b, static), want[pos:pos+uint64(len(b.SI))])
			case 1:
				skipped += r.Skip(uint64(max/2 + 3))
			case 2:
				skipped += r.WarmNext(uint64(max+5), &recordingSink{})
			}
			if r.Pos() < pos {
				t.Fatalf("max %d: position went back from %d to %d", max, pos, r.Pos())
			}
		}
	}
}

// TestLiveFaultMidBlock: a fault inside a block ends it after the records
// before the fault; the next block is empty and Err reports the fault.
func TestLiveFaultMidBlock(t *testing.T) {
	p := mixedProgram(40, true)
	var want []rec
	m := emu.New(p)
	for {
		d, ok := m.Step()
		if !ok {
			break
		}
		want = append(want, recOf(d))
	}
	if m.Err == nil {
		t.Fatal("reference run did not fault")
	}
	const max = 250
	if len(want)%max == 0 {
		t.Fatalf("fault at record %d falls on a block boundary", len(want))
	}
	live := NewLive(emu.New(p))
	sameRecs(t, "Live up to the fault", drainBlocks(t, live, max), want)
	if live.Err() == nil {
		t.Fatal("Live did not report the fault")
	}
}
