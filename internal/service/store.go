package service

//simcheck:allow-file nogoroutine -- the stores are shared by server goroutines and guard state with a mutex

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/sweep"
)

// ResultStore is the content-addressed result cache: completed Measures
// keyed by Point.Fingerprint. Entries are immutable — every run is
// deterministic, so a fingerprint names exactly one value and a Put that
// disagrees with a stored entry is a correctness bug (a nondeterminism
// leak), not an update. Implementations must be safe for concurrent use.
type ResultStore interface {
	// Get returns the stored measures for a fingerprint.
	Get(fp string) (sweep.Measures, bool, error)
	// Put stores complete measures under a fingerprint. Re-putting the same
	// value is a no-op; putting a different value for an existing
	// fingerprint returns ErrImmutable.
	Put(fp string, m sweep.Measures) error
	// Len returns the number of stored entries.
	Len() (int, error)
}

// ErrImmutable reports a Put that tried to change an existing entry.
var ErrImmutable = errors.New("service: result store entries are immutable; a conflicting Put means a nondeterministic run")

// measuresEqual compares two Measures by their canonical JSON encoding —
// the same byte-identity standard the golden tables are held to.
func measuresEqual(a, b sweep.Measures) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && string(ab) == string(bb)
}

// MemoryStore is an in-memory LRU ResultStore.
type MemoryStore struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *memEntry
	byFP  map[string]*list.Element
}

type memEntry struct {
	fp string
	m  sweep.Measures
}

// NewMemoryStore returns an LRU store holding at most capacity entries;
// capacity <= 0 means unbounded.
func NewMemoryStore(capacity int) *MemoryStore {
	return &MemoryStore{cap: capacity, order: list.New(), byFP: map[string]*list.Element{}}
}

// Get implements ResultStore.
func (s *MemoryStore) Get(fp string) (sweep.Measures, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byFP[fp]
	if !ok {
		return sweep.Measures{}, false, nil
	}
	s.order.MoveToFront(el)
	return el.Value.(*memEntry).m, true, nil
}

// Put implements ResultStore.
func (s *MemoryStore) Put(fp string, m sweep.Measures) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byFP[fp]; ok {
		if !measuresEqual(el.Value.(*memEntry).m, m) {
			return fmt.Errorf("%w (fingerprint %s)", ErrImmutable, fp)
		}
		s.order.MoveToFront(el)
		return nil
	}
	s.byFP[fp] = s.order.PushFront(&memEntry{fp: fp, m: m})
	if s.cap > 0 && s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.byFP, oldest.Value.(*memEntry).fp)
	}
	return nil
}

// Len implements ResultStore.
func (s *MemoryStore) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len(), nil
}

// diskResultVersion is bumped when the on-disk result format changes
// incompatibly.
const diskResultVersion = 1

// diskResult is the JSON document stored per fingerprint.
type diskResult struct {
	Version     int            `json:"version"`
	Fingerprint string         `json:"fingerprint"`
	Measures    sweep.Measures `json:"measures"`
}

// DiskStore is an on-disk ResultStore: one JSON file per fingerprint,
// written atomically (atomicWriteJSON), so a crash mid-put never leaves a
// torn entry. The directory is the cache: restarting the daemon, or rerunning
// an in-process experiment, over the same directory starts warm. The store owns
// the directory while it is open: it counts the entries once, at open, and
// keeps the count as it creates files.
type DiskStore struct {
	mu  sync.Mutex
	dir string
	n   int // result files in dir; guarded by mu
}

// NewDiskStore opens (creating if needed) a result directory.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: result dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: result dir: %w", err)
	}
	s := &DiskStore{dir: dir}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			s.n++
		}
	}
	return s, nil
}

// validFingerprint reports whether fp has the shape Point.Fingerprint
// produces: nonempty lowercase hex.
func validFingerprint(fp string) bool {
	return fp != "" && strings.Trim(fp, "0123456789abcdef") == ""
}

// path maps a fingerprint to its file. Fingerprints are lowercase hex
// (Point.Fingerprint), so they are safe as file names; anything else is
// rejected to keep the store from being used as a path-traversal gadget.
func (s *DiskStore) path(fp string) (string, error) {
	if !validFingerprint(fp) {
		return "", fmt.Errorf("service: invalid fingerprint %q", fp)
	}
	return filepath.Join(s.dir, fp+".json"), nil
}

// Get implements ResultStore.
func (s *DiskStore) Get(fp string) (sweep.Measures, bool, error) {
	p, err := s.path(fp)
	if err != nil {
		return sweep.Measures{}, false, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return sweep.Measures{}, false, nil
	}
	if err != nil {
		return sweep.Measures{}, false, err
	}
	var d diskResult
	if err := json.Unmarshal(data, &d); err != nil {
		return sweep.Measures{}, false, fmt.Errorf("service: corrupt result %s: %w", fp, err)
	}
	if d.Version != diskResultVersion || d.Fingerprint != fp {
		return sweep.Measures{}, false, fmt.Errorf("service: result %s has version %d fingerprint %q", fp, d.Version, d.Fingerprint)
	}
	return d.Measures, true, nil
}

// Put implements ResultStore.
func (s *DiskStore) Put(fp string, m sweep.Measures) error {
	p, err := s.path(fp)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok, err := s.Get(fp); err != nil {
		return err
	} else if ok {
		if !measuresEqual(old, m) {
			return fmt.Errorf("%w (fingerprint %s)", ErrImmutable, fp)
		}
		return nil
	}
	if err := atomicWriteJSON(p, diskResult{Version: diskResultVersion, Fingerprint: fp, Measures: m}); err != nil {
		return err
	}
	s.n++
	return nil
}

// Len implements ResultStore.
func (s *DiskStore) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n, nil
}

// TieredStore layers a fast store (memory LRU) over a durable one (disk):
// gets that miss the front store fall through to the back store and promote
// the hit; puts write through to both.
type TieredStore struct {
	front, back ResultStore
}

// NewTieredStore returns front-over-back.
func NewTieredStore(front, back ResultStore) *TieredStore {
	return &TieredStore{front: front, back: back}
}

// Get implements ResultStore.
func (s *TieredStore) Get(fp string) (sweep.Measures, bool, error) {
	if m, ok, err := s.front.Get(fp); err != nil || ok {
		return m, ok, err
	}
	m, ok, err := s.back.Get(fp)
	if err != nil || !ok {
		return sweep.Measures{}, false, err
	}
	if err := s.front.Put(fp, m); err != nil {
		return sweep.Measures{}, false, err
	}
	return m, true, nil
}

// Put implements ResultStore.
func (s *TieredStore) Put(fp string, m sweep.Measures) error {
	if err := s.back.Put(fp, m); err != nil {
		return err
	}
	return s.front.Put(fp, m)
}

// Len implements ResultStore: the durable store's count.
func (s *TieredStore) Len() (int, error) { return s.back.Len() }

// OpenStore builds the store a daemon or an in-process experiment runs on:
// a memory LRU of cache entries (0 = unbounded), over a DiskStore in
// dataDir/results when dataDir is set.
func OpenStore(dataDir string, cache int) (ResultStore, error) {
	mem := NewMemoryStore(cache)
	if dataDir == "" {
		return mem, nil
	}
	disk, err := NewDiskStore(filepath.Join(dataDir, "results"))
	if err != nil {
		return nil, err
	}
	return NewTieredStore(mem, disk), nil
}

// atomicWriteJSON marshals v with indentation and writes it to path
// atomically: write a temp file in the same directory, then rename it over
// the target. A crash mid-write leaves the previous file intact. The result
// store and the job journal persist through it.
func atomicWriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
