package trace

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// captureKernel records one kernel for artifact tests.
func captureKernel(t *testing.T, name string, ext isa.Ext) (*Trace, *isa.Program) {
	t.Helper()
	k, err := kernels.ByName(name, kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	p := k.Build(ext)
	tr, err := Capture(emu.New(p), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr, p
}

// encode renders a trace's artifact bytes.
func encode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if n != tr.EncodedSize() {
		t.Fatalf("EncodedSize says %d, WriteTo wrote %d", tr.EncodedSize(), n)
	}
	return buf.Bytes()
}

// drain replays a source to completion.
func drain(t *testing.T, src Source) []rec {
	t.Helper()
	out := drainBlocks(t, src, chunkRecords)
	if err := src.Err(); err != nil {
		t.Fatalf("source fault: %v", err)
	}
	return out
}

// TestArtifactRoundTrip checks encode → decode → re-encode byte identity and
// record-for-record replay equality, for both the materialising decoder and
// the streaming one, across kernels and ISAs.
func TestArtifactRoundTrip(t *testing.T) {
	for _, name := range []string{"idct", "motion1"} {
		for _, ext := range []isa.Ext{isa.ExtAlpha, isa.ExtMOM} {
			name, ext := name, ext
			t.Run(name+"/"+ext.String(), func(t *testing.T) {
				t.Parallel()
				tr, p := captureKernel(t, name, ext)
				blob := encode(t, tr)

				dec, err := Decode(bytes.NewReader(blob), p)
				if err != nil {
					t.Fatal(err)
				}
				if dec.Records() != tr.Records() || dec.Chunks() != tr.Chunks() || dec.Bytes() != tr.Bytes() {
					t.Fatalf("decoded shape %d/%d/%d, captured %d/%d/%d",
						dec.Records(), dec.Chunks(), dec.Bytes(), tr.Records(), tr.Chunks(), tr.Bytes())
				}
				if again := encode(t, dec); !bytes.Equal(again, blob) {
					t.Fatal("re-encoded artifact differs from the original bytes")
				}

				want := drain(t, tr.Reader())
				got := drain(t, dec.Reader())
				st, err := NewStream(bytes.NewReader(blob), p)
				if err != nil {
					t.Fatal(err)
				}
				streamed := drain(t, st)
				if len(got) != len(want) || len(streamed) != len(want) {
					t.Fatalf("replay lengths: capture %d, decode %d, stream %d", len(want), len(got), len(streamed))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("record %d: decoded %+v != captured %+v", i, got[i], want[i])
					}
					if streamed[i] != want[i] {
						t.Fatalf("record %d: streamed %+v != captured %+v", i, streamed[i], want[i])
					}
				}
				if st.Pos() != st.Records() {
					t.Fatalf("stream consumed %d of %d records", st.Pos(), st.Records())
				}
			})
		}
	}
}

// TestArtifactCorruption flips, truncates and mislabels artifact bytes and
// requires every damaged form to fail with ErrFormat — never decode wrong.
func TestArtifactCorruption(t *testing.T) {
	tr, p := captureKernel(t, "idct", isa.ExtMOM)
	blob := encode(t, tr)
	headerLen := bytes.IndexByte(blob, '\n') + 1

	check := func(t *testing.T, data []byte) {
		t.Helper()
		if _, err := Decode(bytes.NewReader(data), p); !errors.Is(err, ErrFormat) {
			t.Fatalf("Decode accepted damaged artifact (err=%v)", err)
		}
		st, err := NewStream(bytes.NewReader(data), p)
		if err == nil {
			for len(st.NextBlock(chunkRecords).SI) > 0 {
			}
			err = st.Err()
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("Stream accepted damaged artifact (err=%v)", err)
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		data := append([]byte(nil), blob...)
		copy(data, "momtrace 9")
		check(t, data)
	})
	t.Run("fingerprint mismatch", func(t *testing.T) {
		// A different program's artifact must not decode for p.
		other, _ := captureKernel(t, "idct", isa.ExtAlpha)
		check(t, encode(t, other))
	})
	t.Run("truncated header", func(t *testing.T) {
		check(t, blob[:headerLen/2])
	})
	t.Run("truncated payload", func(t *testing.T) {
		check(t, blob[:headerLen+(len(blob)-headerLen)/2])
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		data := append([]byte(nil), blob...)
		data[len(data)-9] ^= 0x40
		check(t, data)
	})
	t.Run("trailing bytes", func(t *testing.T) {
		check(t, append(append([]byte(nil), blob...), 0))
	})
	t.Run("record count lie", func(t *testing.T) {
		// Rewrite the header to claim one record fewer; framing no longer
		// adds up and both decoders must notice.
		var fp string
		var records uint64
		var chunks int
		if _, err := fmt.Sscanf(string(blob[:headerLen]), fileMagic+" %16s %d %d\n", &fp, &records, &chunks); err != nil {
			t.Fatal(err)
		}
		hdr := []byte(fmt.Sprintf("%s %s %d %d\n", fileMagic, fp, records-1, chunks))
		check(t, append(hdr, blob[headerLen:]...))
	})
}

// TestStreamEarlyError verifies a mid-file flip stops the stream with an
// error only after the verified prefix replayed intact: streaming hands out
// no unverified records.
func TestStreamEarlyError(t *testing.T) {
	// Any kernel with a multi-chunk trace will do; Alpha traces are the
	// longest (no vector compression of the dynamic stream).
	var tr *Trace
	var p *isa.Program
	for _, k := range kernels.All(kernels.ScaleTest) {
		tr, p = captureKernel(t, k.Name, isa.ExtAlpha)
		if tr.Chunks() >= 2 {
			break
		}
	}
	if tr == nil || tr.Chunks() < 2 {
		t.Skip("no multi-chunk trace available at test scale")
	}
	blob := encode(t, tr)
	headerLen := bytes.IndexByte(blob, '\n') + 1
	// Damage a byte inside the SECOND frame; the first frame must replay.
	firstFrame := headerLen + frameHeaderLen + int(frameSize(chunkRecords, len(tr.chunks[0].EA), len(tr.chunks[0].Stride)))
	data := append([]byte(nil), blob...)
	data[firstFrame+frameHeaderLen+10] ^= 1

	st, err := NewStream(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, tr.Reader())
	var got []rec
	for {
		b := st.NextBlock(1000)
		if len(b.SI) == 0 {
			break
		}
		got = appendBlock(t, got, b, tr.static)
	}
	sameRecs(t, "stream before the damaged frame", got, want[:len(got)])
	if n := len(got); n != chunkRecords {
		t.Fatalf("stream yielded %d records before the damaged frame, want %d", n, chunkRecords)
	}
	if !errors.Is(st.Err(), ErrFormat) {
		t.Fatalf("stream ended without surfacing the corruption: %v", st.Err())
	}
}

// TestDecodeGrantedBudget: a refused reservation aborts with ErrTooLarge and
// reports exactly the bytes granted so far; an exact budget succeeds with
// granted == Bytes().
func TestDecodeGrantedBudget(t *testing.T) {
	tr, p := captureKernel(t, "idct", isa.ExtMOM)
	blob := encode(t, tr)

	var granted int64
	trDec, got, err := DecodeGranted(bytes.NewReader(blob), p, func(n int64) bool {
		if granted+n > tr.Bytes() {
			return false
		}
		granted += n
		return true
	})
	if err != nil || trDec == nil {
		t.Fatalf("exact budget refused: %v", err)
	}
	if got != tr.Bytes() || granted != tr.Bytes() {
		t.Fatalf("granted %d/%d, want %d", got, granted, tr.Bytes())
	}

	var small int64
	_, got, err = DecodeGranted(bytes.NewReader(blob), p, func(n int64) bool {
		if small+n > tr.Bytes()/2 {
			return false
		}
		small += n
		return true
	})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("half budget: err=%v, want ErrTooLarge", err)
	}
	if got != small {
		t.Fatalf("reported granted %d, reserved %d", got, small)
	}
}
