package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// entryFile renders the on-disk bytes of an entry holding val in format
// "momstore 1": a header line with the payload's SHA-256 and length, then
// the payload.
func entryFile(val []byte) []byte {
	return append([]byte(fmt.Sprintf("momstore 1 %x %d\n", sha256.Sum256(val), len(val))), val...)
}

// chunked writes a value in odd-sized pieces, the way an encoder that
// renders frame by frame does.
type chunked []byte

func (c chunked) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for rest := []byte(c); len(rest) > 0; {
		n := min(len(rest), 4097)
		m, err := w.Write(rest[:n])
		total += int64(m)
		if err != nil {
			return total, err
		}
		rest = rest[n:]
	}
	return total, nil
}

// failing writes half of a value and then reports an error.
type failing []byte

func (f failing) WriteTo(w io.Writer) (int64, error) {
	n, _ := w.Write(f[:len(f)/2])
	return int64(n), errors.New("encoder failed")
}

// TestEntryFileFormat: whatever the write path — Put, or PutFrom and
// FillFrom fed in pieces — the entry file is the "momstore 1" header and
// the payload, byte for byte, for an empty, a 1-byte and a 1 MiB value.
func TestEntryFileFormat(t *testing.T) {
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i*31 + i>>9)
	}
	writes := map[string]func(s *Store, k string, val []byte) error{
		"Put":      func(s *Store, k string, val []byte) error { return s.Put(k, val) },
		"PutFrom":  func(s *Store, k string, val []byte) error { return s.PutFrom(k, int64(len(val)), chunked(val)) },
		"Fill":     func(s *Store, k string, val []byte) error { return s.Fill(k, val) },
		"FillFrom": func(s *Store, k string, val []byte) error { return s.FillFrom(k, int64(len(val)), chunked(val)) },
	}
	for wname, write := range writes {
		for _, val := range [][]byte{{}, {'x'}, big} {
			t.Run(fmt.Sprintf("%s/%d", wname, len(val)), func(t *testing.T) {
				s := open(t, t.TempDir(), 0)
				k := key("v")
				if err := write(s, k, val); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(s.path(k))
				if err != nil {
					t.Fatal(err)
				}
				want := entryFile(val)
				if !bytes.Equal(got, want) {
					t.Fatalf("entry file is %d bytes starting %q, want %d bytes starting %q",
						len(got), got[:min(len(got), 90)], len(want), want[:min(len(want), 90)])
				}
				if st := s.Stats(); st.Bytes != int64(len(want)) {
					t.Fatalf("indexed %d bytes, file holds %d", st.Bytes, len(want))
				}
				if v, ok := s.Get(k); !ok || !bytes.Equal(v, val) {
					t.Fatalf("read back %d bytes ok=%v, want the %d written", len(v), ok, len(val))
				}
			})
		}
	}
}

// TestWriteFaults: a value source that writes fewer or more bytes than it
// declared, or fails, fails the write and leaves no trace — no key
// indexed, no temp file, no counter moved.
func TestWriteFaults(t *testing.T) {
	val := []byte("the value as declared")
	sources := map[string]func() io.WriterTo{
		"short":  func() io.WriterTo { return bytes.NewReader(val[:len(val)-1]) },
		"long":   func() io.WriterTo { return chunked(append(append([]byte(nil), val...), '!')) },
		"failed": func() io.WriterTo { return failing(val) },
	}
	for sname, src := range sources {
		for _, fill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fill=%v", sname, fill), func(t *testing.T) {
				dir := t.TempDir()
				s := open(t, dir, 0)
				if err := s.Put(key("other"), []byte("bystander")); err != nil {
					t.Fatal(err)
				}
				before := s.Stats()
				k := key("v")
				var err error
				if fill {
					err = s.FillFrom(k, int64(len(val)), src())
				} else {
					err = s.PutFrom(k, int64(len(val)), src())
				}
				if err == nil {
					t.Fatal("faulty source accepted")
				}
				if s.Has(k) {
					t.Fatal("failed write indexed its key")
				}
				if after := s.Stats(); after != before {
					t.Fatalf("failed write moved the stats: %+v -> %+v", before, after)
				}
				filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
					if err == nil && strings.HasPrefix(d.Name(), "tmp-") {
						t.Errorf("temp file left behind: %s", path)
					}
					return err
				})
				if _, err := os.Stat(s.path(k)); !os.IsNotExist(err) {
					t.Fatalf("failed write left an entry file (stat err %v)", err)
				}
			})
		}
	}
}

// canonicalEntry reports whether data is exactly the entry file of the
// payload after its first line.
func canonicalEntry(data []byte) bool {
	i := bytes.IndexByte(data, '\n')
	return i >= 0 && bytes.Equal(data, entryFile(data[i+1:]))
}

// FuzzStoreEntry plants arbitrary bytes as the entry file of a valid key
// (seed corpus in testdata/fuzz/FuzzStoreEntry).
// Get must serve a value exactly when the file is that value's entry —
// magic, length and SHA-256 all matching — and otherwise miss and remove
// the file. GetStream, which checks only the header, must never panic and
// must yield exactly the payload length it declares.
func FuzzStoreEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		k := key("planted")
		path := filepath.Join(dir, k[:2], k)
		plant := func() *Store {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return open(t, dir, 0)
		}
		gone := func(what string) {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("%s miss left the entry file (stat err %v)", what, err)
			}
		}

		val, ok := plant().Get(k)
		switch want := canonicalEntry(data); {
		case ok != want:
			t.Fatalf("Get ok=%v on %q, want %v", ok, data, want)
		case ok && !bytes.Equal(entryFile(val), data):
			t.Fatalf("Get served %q from %q", val, data)
		case !ok:
			gone("Get")
		}

		rc, n, ok := plant().GetStream(k)
		if !ok {
			gone("GetStream")
			return
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || int64(len(got)) != n || !bytes.HasSuffix(data, got) {
			t.Fatalf("GetStream declared %d bytes, yielded %q (err %v) from %q", n, got, err, data)
		}
	})
}
