// Package store is a disk-backed, content-addressed result store: values
// are byte blobs keyed by a caller-computed SHA-256 (the canonical hash of
// an experiment request — see mom.JobRequest.Key), written atomically and
// bounded by an LRU size budget.
//
// The store is an optimisation, never a source of truth: any damaged,
// truncated or unreadable entry reads as a miss (and is removed), so the
// worst failure mode is recomputing a result. Writes go through a
// temp-file + rename, so a crash can never leave a half-written value
// under a valid key.
package store

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// fileMagic heads every entry file; the trailing 1 is the on-disk format
// version (independent of the value schema, which is part of the key).
const fileMagic = "momstore 1"

// Stats is a snapshot of the store counters.
type Stats struct {
	Hits      uint64 // Get found a valid entry
	Misses    uint64 // Get found nothing (or a corrupt entry)
	Puts      uint64 // values written by local computation
	Fills     uint64 // values written from a peer (Fill)
	Evictions uint64 // entries removed by the LRU bound
	Entries   int    // entries currently held
	Bytes     int64  // on-disk bytes currently held (headers included)
}

type entry struct {
	key  string
	size int64
	elem *list.Element // position in the recency list
}

// Store is a size-bounded content-addressed blob store rooted at one
// directory. It is safe for concurrent use.
type Store struct {
	dir string
	max int64 // payload-byte budget; <= 0 means unbounded

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used
	bytes   int64
	stats   Stats
}

// Open loads (or creates) a store rooted at dir, bounded to maxBytes on
// disk (<= 0 disables the bound). Existing entries are indexed
// without reading their payloads; their LRU order is rebuilt from file
// modification times, which Get refreshes, so recency survives restarts.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		max:     maxBytes,
		entries: map[string]*entry{},
		lru:     list.New(),
	}
	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var have []found
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if !validKey(name) {
			if strings.HasPrefix(name, "tmp-") {
				os.Remove(path) // leftover from an interrupted Put
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent eviction; skip
		}
		have = append(have, found{key: name, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	// Oldest first, so the most recently touched entries end up at the
	// front of the LRU list.
	sort.Slice(have, func(i, j int) bool { return have[i].mtime.Before(have[j].mtime) })
	for _, f := range have {
		e := &entry{key: f.key, size: f.size}
		e.elem = s.lru.PushFront(e)
		s.entries[f.key] = e
		s.bytes += f.size
	}
	s.evictLocked()
	return s, nil
}

// validKey reports whether key is a lowercase hex SHA-256 digest.
func validKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(key)
	return err == nil && strings.ToLower(key) == key
}

// path returns the entry file for a key, sharded by the first two hex
// digits so no single directory grows unbounded.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Get returns the stored value for key. Any failure — absent entry,
// truncated file, checksum mismatch — is a miss; damaged entries are
// removed so they are not re-verified on every lookup.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if !ok {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	val, err := readEntry(s.path(key))
	if err != nil {
		s.removeDamaged(key)
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	// Refresh the mtime (best effort) so LRU order survives a restart.
	now := time.Now()
	_ = os.Chtimes(s.path(key), now, now)
	s.count(func(st *Stats) { st.Hits++ })
	return val, true
}

// Has reports whether key is currently indexed, without opening or
// verifying the entry and without touching recency or the hit/miss
// counters. Callers that need the bytes still use Get/GetStream — an
// indexed entry can turn out damaged.
func (s *Store) Has(key string) bool {
	if !validKey(key) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// GetStream opens the stored value for key as a payload reader, so large
// values stream to their consumer instead of materialising. Only the header
// is verified here — magic, declared length against the file's size — NOT
// the payload checksum: GetStream exists for payloads that carry their own
// internal framing checks (trace artifacts verify per-chunk CRCs and a
// program fingerprint as they decode). A consumer whose own verification
// fails must call Invalidate. The returned size is the declared payload
// length; the reader yields at most that many bytes and the caller owns
// Close.
func (s *Store) GetStream(key string) (io.ReadCloser, int64, bool) {
	if !validKey(key) {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, 0, false
	}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if !ok {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, 0, false
	}
	f, err := os.Open(s.path(key))
	if err != nil {
		s.removeDamaged(key)
		s.count(func(st *Stats) { st.Misses++ })
		return nil, 0, false
	}
	br := bufio.NewReaderSize(f, 64<<10)
	_, n, err := readHeader(f, br)
	if err != nil {
		f.Close()
		s.removeDamaged(key)
		s.count(func(st *Stats) { st.Misses++ })
		return nil, 0, false
	}
	now := time.Now()
	_ = os.Chtimes(s.path(key), now, now)
	s.count(func(st *Stats) { st.Hits++ })
	return &streamEntry{r: io.LimitReader(br, n), f: f}, n, true
}

// streamEntry couples a payload-bounded reader with its file handle.
type streamEntry struct {
	r io.Reader
	f *os.File
}

func (s *streamEntry) Read(p []byte) (int, error) { return s.r.Read(p) }
func (s *streamEntry) Close() error               { return s.f.Close() }

// Invalidate drops an entry whose payload a GetStream consumer found
// damaged by its own verification, so the corrupt bytes are not served
// again. Invalidating an absent key is a no-op.
func (s *Store) Invalidate(key string) {
	if !validKey(key) {
		return
	}
	s.removeDamaged(key)
}

// Put stores val under key, atomically (write to a temp file in the same
// directory, fsync, rename) and then evicts least-recently-used entries
// until the store fits its budget. Re-putting an existing key refreshes
// its value and recency.
func (s *Store) Put(key string, val []byte) error {
	return s.PutFrom(key, int64(len(val)), bytes.NewReader(val))
}

// PutFrom is Put for an n-byte value that src writes out, so a large value
// streams into the entry file instead of first being rendered whole in
// memory. src must write exactly n bytes; fewer, more, or a write error
// fails the Put and leaves the store as it was.
func (s *Store) PutFrom(key string, n int64, src io.WriterTo) error {
	return s.write(key, n, src, false)
}

// Fill stores a value obtained from a peer rather than computed locally.
// The write path is identical to Put — atomic, verified, LRU-bounded — it
// is counted separately so fill-on-miss traffic is visible, and a value
// already present is left untouched (the peer's copy of an entry this
// store already verified cannot be fresher: keys are content addresses).
func (s *Store) Fill(key string, val []byte) error {
	return s.FillFrom(key, int64(len(val)), bytes.NewReader(val))
}

// FillFrom is Fill for an n-byte value that src writes out (see PutFrom).
func (s *Store) FillFrom(key string, n int64, src io.WriterTo) error {
	if s.Has(key) {
		return nil
	}
	return s.write(key, n, src, true)
}

// write is the one entry write path behind Put and Fill: the value goes to
// a temp file in the key's directory, which is fsynced and renamed over the
// entry, and only then indexed and counted (as a fill or a put) under one
// hold of the lock, so no Stats snapshot sees a half-counted write.
func (s *Store) write(key string, n int64, src io.WriterTo, fill bool) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if n < 0 {
		return fmt.Errorf("store: negative value length %d", n)
	}
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	size, err := writeEntry(tmp, n, src)
	if err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.bytes += size - e.size
		e.size = size
		s.lru.MoveToFront(e.elem)
	} else {
		e := &entry{key: key, size: size}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
		s.bytes += size
	}
	if fill {
		s.stats.Fills++
	} else {
		s.stats.Puts++
	}
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// header renders an entry file's first line for a payload of n bytes with
// SHA-256 sum. Its length depends only on n.
func header(sum []byte, n int64) string {
	return fmt.Sprintf("%s %x %d\n", fileMagic, sum, n)
}

// writeEntry writes a whole entry file into f and fsyncs it, returning its
// size. The payload streams through a SHA-256 tee after a gap the length of
// the header; the header, whose checksum is known only at the end, then
// fills the gap.
func writeEntry(f *os.File, n int64, src io.WriterTo) (int64, error) {
	hdrLen := int64(len(header(make([]byte, sha256.Size), n)))
	if _, err := f.Seek(hdrLen, io.SeekStart); err != nil {
		return 0, err
	}
	w := &payloadWriter{f: f, h: sha256.New(), left: n}
	if _, err := src.WriteTo(w); err != nil {
		return 0, err
	}
	if w.left != 0 {
		return 0, fmt.Errorf("value %d bytes short of its declared %d", w.left, n)
	}
	if _, err := f.WriteAt([]byte(header(w.h.Sum(nil), n)), 0); err != nil {
		return 0, err
	}
	return hdrLen + n, f.Sync()
}

// payloadWriter writes a value into its entry file and its checksum,
// refusing any byte past the declared length.
type payloadWriter struct {
	f    *os.File
	h    hash.Hash
	left int64
}

func (w *payloadWriter) Write(p []byte) (int, error) {
	if int64(len(p)) > w.left {
		return 0, errors.New("value longer than its declared length")
	}
	w.h.Write(p)
	n, err := w.f.Write(p)
	w.left -= int64(n)
	return n, err
}

// evictLocked drops least-recently-used entries until the byte budget is
// met. Caller holds s.mu.
func (s *Store) evictLocked() {
	if s.max <= 0 {
		return
	}
	for s.bytes > s.max {
		back := s.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.key)
		s.bytes -= e.size
		s.stats.Evictions++
		os.Remove(s.path(e.key))
	}
}

// removeDamaged drops a key whose file failed verification.
func (s *Store) removeDamaged(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		s.lru.Remove(e.elem)
		delete(s.entries, key)
		s.bytes -= e.size
	}
	os.Remove(s.path(key))
}

// Stats returns a snapshot of the counters and current occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	return st
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// readEntry reads and verifies one entry file: header line, declared
// length, payload checksum. Any mismatch is an error (the caller treats
// it as a miss).
func readEntry(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	want, n, err := readHeader(f, r)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	val := make([]byte, n)
	if _, err := io.ReadFull(r, val); err != nil {
		return nil, fmt.Errorf("store: truncated %s: %w", path, err)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("store: trailing bytes in %s", path)
	}
	if sum := sha256.Sum256(val); !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("store: checksum mismatch in %s", path)
	}
	return val, nil
}

// readHeader reads the header line of entry file f through r and returns
// the payload checksum and length it declares. The line must be exactly
// what header renders, and the length must be what the file holds after
// it, so a damaged length can neither size an allocation nor promise
// bytes that are not there.
func readHeader(f *os.File, r *bufio.Reader) (sum []byte, n int64, err error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return nil, 0, fmt.Errorf("bad header: %w", err)
	}
	var sumHex string
	if _, err := fmt.Sscanf(string(line), fileMagic+" %64s %d\n", &sumHex, &n); err != nil {
		return nil, 0, fmt.Errorf("bad header: %w", err)
	}
	sum, err = hex.DecodeString(sumHex)
	if err != nil || len(sum) != sha256.Size || n < 0 || header(sum, n) != string(line) {
		return nil, 0, fmt.Errorf("bad header %q", line)
	}
	info, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if info.Size() != int64(len(line))+n {
		return nil, 0, fmt.Errorf("header declares %d payload bytes, file holds %d", n, info.Size()-int64(len(line)))
	}
	return sum, n, nil
}
