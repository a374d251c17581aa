package trace

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// appendColumns concatenates a block's columns onto acc.
func appendColumns(acc *Block, b *Block) {
	acc.SI = append(acc.SI, b.SI...)
	acc.Meta = append(acc.Meta, b.Meta...)
	acc.EA = append(acc.EA, b.EA...)
	acc.Stride = append(acc.Stride, b.Stride...)
}

// FuzzDecode feeds mutated bytes of a real artifact — motion1 on MOM — to
// both readers of untrusted artifact bytes: the materialising Decode and a
// NewStream drained through NextBlock. Neither may panic, and they must
// agree: either both reject the bytes with ErrFormat, or both yield the
// same record count and the same columns. The seed corpus in
// testdata/fuzz/FuzzDecode adds crafted headers and frames, among them a
// header whose chunk count once sized an allocation.
func FuzzDecode(f *testing.F) {
	k, err := kernels.ByName("motion1", kernels.ScaleTest)
	if err != nil {
		f.Fatal(err)
	}
	p := k.Build(isa.ExtMOM)
	tr, err := Capture(emu.New(p), testMaxSteps, 0)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded Block
		dec, derr := Decode(bytes.NewReader(data), p)
		if derr == nil {
			for i := range dec.chunks {
				appendColumns(&decoded, &dec.chunks[i])
			}
		}
		var streamed Block
		st, serr := NewStream(bytes.NewReader(data), p)
		if serr == nil {
			for {
				b := st.NextBlock(chunkRecords)
				if len(b.SI) == 0 {
					break
				}
				appendColumns(&streamed, &b)
			}
			serr = st.Err()
		}
		if (derr == nil) != (serr == nil) {
			t.Fatalf("readers disagree: Decode error %v, stream error %v", derr, serr)
		}
		if derr != nil {
			if !errors.Is(derr, ErrFormat) || !errors.Is(serr, ErrFormat) {
				t.Fatalf("rejection is not ErrFormat: Decode %v, stream %v", derr, serr)
			}
			return
		}
		if dec.Records() != st.Pos() || uint64(len(decoded.SI)) != dec.Records() {
			t.Fatalf("record counts: Decode %d (%d in its chunks), stream %d",
				dec.Records(), len(decoded.SI), st.Pos())
		}
		if !reflect.DeepEqual(decoded, streamed) {
			t.Fatal("Decode and the stream yield different columns")
		}
	})
}
