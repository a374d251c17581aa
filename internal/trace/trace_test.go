package trace

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

const testMaxSteps = 50_000_000

// TestReplayMatchesLive captures every kernel (all ISAs) and checks that the
// replayed Dyn stream is field-for-field identical to a fresh emulator run.
func TestReplayMatchesLive(t *testing.T) {
	for _, k := range kernels.All(kernels.ScaleTest) {
		for _, ext := range []isa.Ext{isa.ExtAlpha, isa.ExtMMX, isa.ExtMDMX, isa.ExtMOM} {
			k, ext := k, ext
			t.Run(k.Name+"/"+ext.String(), func(t *testing.T) {
				t.Parallel()
				p := k.Build(ext)
				tr, err := Capture(emu.New(p), testMaxSteps, 0)
				if err != nil {
					t.Fatal(err)
				}
				live := emu.New(k.Build(ext))
				r := tr.Reader()
				var n uint64
				for {
					want, okW := live.Step()
					got, okG := r.Next()
					if okW != okG {
						t.Fatalf("record %d: live ok=%v, replay ok=%v", n, okW, okG)
					}
					if !okW {
						break
					}
					if got != want {
						t.Fatalf("record %d: replay %+v != live %+v", n, got, want)
					}
					n++
				}
				if n != tr.Records() {
					t.Fatalf("replayed %d records, trace holds %d", n, tr.Records())
				}
				if tr.Chunks() < 1 {
					t.Fatal("trace has no chunks")
				}
				if tr.Bytes() <= 0 {
					t.Fatal("trace reports no bytes")
				}
			})
		}
	}
}

// TestConcurrentReaders replays one trace from many goroutines at once; the
// race detector guards the sharing contract.
func TestConcurrentReaders(t *testing.T) {
	k, err := kernels.ByName("idct", kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Capture(emu.New(k.Build(isa.ExtMOM)), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan uint64)
	for w := 0; w < 8; w++ {
		go func() {
			r := tr.Reader()
			var n uint64
			for {
				if _, ok := r.Next(); !ok {
					break
				}
				n++
			}
			done <- n
		}()
	}
	for w := 0; w < 8; w++ {
		if n := <-done; n != tr.Records() {
			t.Fatalf("reader saw %d records, want %d", n, tr.Records())
		}
	}
}

// TestCaptureByteBudget: a tiny budget must yield ErrTooLarge, not a
// truncated trace.
func TestCaptureByteBudget(t *testing.T) {
	k, err := kernels.ByName("idct", kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Capture(emu.New(k.Build(isa.ExtMOM)), testMaxSteps, 64)
	if err == nil {
		t.Fatal("expected ErrTooLarge")
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

// TestCaptureStepBudget: exceeding maxSteps is an error.
func TestCaptureStepBudget(t *testing.T) {
	k, err := kernels.ByName("idct", kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Capture(emu.New(k.Build(isa.ExtMOM)), 10, 0); err == nil {
		t.Fatal("expected step-budget error")
	}
}

// TestSkipMatchesNext: Skip(n) must land the cursor exactly where n Next
// calls would — including the ea/stride columns — for every offset class
// (mid-chunk, chunk boundary, past the end), and the Pos/Skipped counters
// must account for every record.
func TestSkipMatchesNext(t *testing.T) {
	k, err := kernels.ByName("idct", kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	p := k.Build(isa.ExtMOM)
	tr, err := Capture(emu.New(p), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Records()
	for _, skip := range []uint64{0, 1, 7, n / 3, n - 1, n, n + 100} {
		skip := skip
		ref := tr.Reader()
		for i := uint64(0); i < skip; i++ {
			ref.Next()
		}
		r := tr.Reader()
		want := skip
		if want > n {
			want = n
		}
		if got := r.Skip(skip); got != want {
			t.Fatalf("Skip(%d) skipped %d records, want %d", skip, got, want)
		}
		if r.Pos() != want || r.Skipped() != want {
			t.Fatalf("Skip(%d): pos %d skipped %d, want both %d", skip, r.Pos(), r.Skipped(), want)
		}
		for {
			want, okW := ref.Next()
			got, okG := r.Next()
			if okW != okG {
				t.Fatalf("after Skip(%d): ref ok=%v, skip-reader ok=%v", skip, okW, okG)
			}
			if !okW {
				break
			}
			if got != want {
				t.Fatalf("after Skip(%d): %+v != %+v", skip, got, want)
			}
		}
		if r.Pos() != n {
			t.Fatalf("after draining: pos %d, want %d", r.Pos(), n)
		}
		if r.Skipped() != want {
			t.Fatalf("after draining: skipped %d, want %d", r.Skipped(), want)
		}
	}
}

// warmRec is one record delivered to a recording WarmSink.
type warmRec struct {
	kind   string
	si     int
	taken  bool
	ea     uint64
	size   int
	stride int64
	nelem  int
	store  bool
}

type recordingSink struct{ recs []warmRec }

func (s *recordingSink) WarmBranch(si int, taken bool) {
	s.recs = append(s.recs, warmRec{kind: "branch", si: si, taken: taken})
}
func (s *recordingSink) WarmScalar(ea uint64, size int, store bool) {
	s.recs = append(s.recs, warmRec{kind: "scalar", ea: ea, size: size, store: store})
}
func (s *recordingSink) WarmVector(ea uint64, stride int64, nelem int, store bool) {
	s.recs = append(s.recs, warmRec{kind: "vector", ea: ea, stride: stride, nelem: nelem, store: store})
}

// TestWarmNextMatchesNext: the bulk fast-forward must deliver exactly the
// branch and memory records Next would reconstruct, in order, with the
// same payloads, and leave the cursor where Next would.
func TestWarmNextMatchesNext(t *testing.T) {
	k, err := kernels.ByName("motion1", kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Capture(emu.New(k.Build(isa.ExtMOM)), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Records()
	span := n / 2

	// Reference: reconstruct the first span records through Next.
	var want []warmRec
	ref := tr.Reader()
	for i := uint64(0); i < span; i++ {
		d, ok := ref.Next()
		if !ok {
			t.Fatal("short stream")
		}
		switch d.Class {
		case isa.ClassBranch:
			want = append(want, warmRec{kind: "branch", si: d.SI, taken: d.Taken})
		case isa.ClassLoad, isa.ClassStore:
			want = append(want, warmRec{kind: "scalar", ea: d.EA, size: d.Size, store: d.Class == isa.ClassStore})
		case isa.ClassMomLoad, isa.ClassMomStore:
			want = append(want, warmRec{kind: "vector", ea: d.EA, stride: d.Stride, nelem: d.VL, store: d.Class == isa.ClassMomStore})
		}
	}

	sink := &recordingSink{}
	r := tr.Reader()
	if got := r.WarmNext(span, sink); got != span {
		t.Fatalf("WarmNext(%d) consumed %d", span, got)
	}
	if r.Pos() != span || r.Skipped() != span {
		t.Fatalf("pos %d skipped %d, want both %d", r.Pos(), r.Skipped(), span)
	}
	if len(sink.recs) != len(want) {
		t.Fatalf("sink saw %d warm records, want %d", len(sink.recs), len(want))
	}
	for i := range want {
		if sink.recs[i] != want[i] {
			t.Fatalf("warm record %d: %+v != %+v", i, sink.recs[i], want[i])
		}
	}

	// The reader must resume exactly where Next left the reference cursor.
	for {
		want, okW := ref.Next()
		got, okG := r.Next()
		if okW != okG {
			t.Fatalf("resume: ref ok=%v, warm-reader ok=%v", okW, okG)
		}
		if !okW {
			break
		}
		if got != want {
			t.Fatalf("resume: %+v != %+v", got, want)
		}
	}
}

// TestCaptureStepLimit: a program of N dynamic instructions captures under
// a limit of N; under N-1 it fails after emulating exactly N records, the
// one past the limit included. Both a short program (inside one StepN
// batch) and a multi-batch one are checked.
func TestCaptureStepLimit(t *testing.T) {
	for _, p := range []*isa.Program{mixedProgram(3, false), mixedProgram(500, false)} {
		tr, err := Capture(emu.New(p), testMaxSteps, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := tr.Records()
		if tr, err := Capture(emu.New(p), n, 0); err != nil || tr.Records() != n {
			t.Errorf("Capture(%d): %v", n, err)
		}
		m := emu.New(p)
		_, err = Capture(m, n-1, 0)
		want := fmt.Sprintf("exceeded %d steps", n-1)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Capture(%d) error %v, want %q", n-1, err, want)
		}
		if m.Steps != n {
			t.Errorf("Capture(%d) emulated %d records, want %d", n-1, m.Steps, n)
		}
	}
}
