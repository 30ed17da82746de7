package service

//simcheck:allow-file nogoroutine -- store tests cover the serving layer

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
)

func meas(v float64) sweep.Measures {
	return sweep.Measures{HomeMsgs: v, Completed: 2}
}

func TestMemoryStoreRoundTrip(t *testing.T) {
	s := NewMemoryStore(0)
	if _, ok, _ := s.Get("aa"); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put("aa", meas(1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	m, ok, err := s.Get("aa")
	if err != nil || !ok || m.HomeMsgs != 1 {
		t.Fatalf("Get = %+v %v %v; want hit with HomeMsgs=1", m, ok, err)
	}
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("Len = %d; want 1", n)
	}
}

func TestMemoryStoreImmutable(t *testing.T) {
	s := NewMemoryStore(0)
	if err := s.Put("aa", meas(1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put("aa", meas(1)); err != nil {
		t.Fatalf("idempotent re-Put must succeed: %v", err)
	}
	if err := s.Put("aa", meas(2)); !errors.Is(err, ErrImmutable) {
		t.Fatalf("conflicting Put: err=%v; want ErrImmutable (a nondeterminism leak)", err)
	}
}

func TestMemoryStoreLRUEviction(t *testing.T) {
	s := NewMemoryStore(2)
	s.Put("aa", meas(1))
	s.Put("bb", meas(2))
	// Touch aa so bb is the least recently used.
	if _, ok, _ := s.Get("aa"); !ok {
		t.Fatal("aa missing before eviction")
	}
	s.Put("cc", meas(3))
	if _, ok, _ := s.Get("bb"); ok {
		t.Fatal("bb survived eviction; LRU should have dropped it")
	}
	if _, ok, _ := s.Get("aa"); !ok {
		t.Fatal("aa (recently used) was evicted")
	}
	if _, ok, _ := s.Get("cc"); !ok {
		t.Fatal("cc (just inserted) missing")
	}
	if n, _ := s.Len(); n != 2 {
		t.Fatalf("Len = %d; want capacity 2", n)
	}
}

func TestDiskStorePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatalf("NewDiskStore: %v", err)
	}
	fp := strings.Repeat("ab", 32)
	if err := s1.Put(fp, meas(7)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A second store over the same directory sees the entry: the directory
	// IS the cache, so a daemon restart starts warm.
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	m, ok, err := s2.Get(fp)
	if err != nil || !ok || m.HomeMsgs != 7 {
		t.Fatalf("Get after reopen = %+v %v %v; want hit with HomeMsgs=7", m, ok, err)
	}
	if err := s2.Put(fp, meas(8)); !errors.Is(err, ErrImmutable) {
		t.Fatalf("conflicting Put on disk: err=%v; want ErrImmutable", err)
	}
	if n, _ := s2.Len(); n != 1 {
		t.Fatalf("Len = %d; want 1", n)
	}
}

func TestDiskStoreRejectsUnsafeFingerprints(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDiskStore: %v", err)
	}
	for _, fp := range []string{"", "../escape", "ABCDEF", "aa/bb", "deadbeef.json"} {
		if err := s.Put(fp, meas(1)); err == nil {
			t.Fatalf("Put(%q) accepted a non-hex fingerprint", fp)
		}
		if _, _, err := s.Get(fp); err == nil {
			t.Fatalf("Get(%q) accepted a non-hex fingerprint", fp)
		}
	}
}

func TestDiskStoreRejectsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatalf("NewDiskStore: %v", err)
	}
	fp := strings.Repeat("cd", 32)
	if err := os.WriteFile(filepath.Join(dir, fp+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(fp); err == nil {
		t.Fatal("Get on a corrupt entry reported success")
	}
}

// TestMemoryStoreEvictionOrderUnderMixedTraffic pins the exact eviction
// sequence of the LRU under interleaved Gets and Puts: a Get refreshes
// recency, so the victim is always the entry longest untouched by either
// operation, not merely the oldest insert.
func TestMemoryStoreEvictionOrderUnderMixedTraffic(t *testing.T) {
	s := NewMemoryStore(3)
	for i, fp := range []string{"aa", "bb", "cc"} {
		if err := s.Put(fp, meas(float64(i))); err != nil {
			t.Fatalf("Put %s: %v", fp, err)
		}
	}
	// Recency (MRU..LRU): cc bb aa. Touch aa -> aa cc bb.
	if _, ok, _ := s.Get("aa"); !ok {
		t.Fatal("aa missing")
	}
	// dd evicts bb (now LRU), not aa (oldest insert but freshly used).
	if err := s.Put("dd", meas(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("bb"); ok {
		t.Fatal("bb survived; mixed-traffic LRU should have evicted it")
	}
	// Recency: dd aa cc. Touch cc -> cc dd aa; ee evicts aa.
	if _, ok, _ := s.Get("cc"); !ok {
		t.Fatal("cc evicted out of order")
	}
	if err := s.Put("ee", meas(4)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("aa"); ok {
		t.Fatal("aa survived; it was LRU after cc's refresh")
	}
	for _, fp := range []string{"cc", "dd", "ee"} {
		if _, ok, _ := s.Get(fp); !ok {
			t.Fatalf("%s missing from the surviving set", fp)
		}
	}
	if n, _ := s.Len(); n != 3 {
		t.Fatalf("Len = %d; want capacity 3", n)
	}
	// An idempotent re-Put is also a touch: re-Put dd, then insert ff; the
	// victim must be cc (LRU), not dd.
	if err := s.Put("dd", meas(3)); err != nil {
		t.Fatalf("idempotent re-Put: %v", err)
	}
	if err := s.Put("ff", meas(5)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("dd"); !ok {
		t.Fatal("dd evicted despite re-Put refresh")
	}
	if _, ok, _ := s.Get("cc"); ok {
		t.Fatal("cc survived; re-Put of dd should have made cc the victim")
	}
}

// TestTieredStoreCapacityPressure is the daemon's production store shape
// (bounded memory LRU over disk) under more entries than the front holds:
// nothing is lost (the durable tier keeps everything), the front respects
// its capacity, and a get of an evicted entry re-promotes it.
func TestTieredStoreCapacityPressure(t *testing.T) {
	front := NewMemoryStore(2)
	back, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewTieredStore(front, back)
	const n = 5
	fp := func(i int) string { return strings.Repeat("0", 62) + "0" + strconv.Itoa(i) }
	for i := 0; i < n; i++ {
		if err := s.Put(fp(i), meas(float64(i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if fn, _ := front.Len(); fn > 2 {
		t.Fatalf("front holds %d entries; capacity is 2", fn)
	}
	if bn, _ := back.Len(); bn != n {
		t.Fatalf("durable tier holds %d entries; want all %d", bn, n)
	}
	if tn, _ := s.Len(); tn != n {
		t.Fatalf("tiered Len = %d; want the durable count %d", tn, n)
	}
	// Every entry is still retrievable with its own value, even the ones the
	// front evicted under pressure.
	for i := 0; i < n; i++ {
		m, ok, err := s.Get(fp(i))
		if err != nil || !ok || m.HomeMsgs != float64(i) {
			t.Fatalf("entry %d: %+v %v %v; want hit with HomeMsgs=%d", i, m, ok, err, i)
		}
	}
	// Entry 0 was just re-read, so the back-store hit promoted it into the
	// front tier again... and then 1..4 pushed it back out. Read it once
	// more and confirm the promotion is observable in the front store.
	if _, ok, _ := s.Get(fp(0)); !ok {
		t.Fatal("entry 0 lost")
	}
	if _, ok, _ := front.Get(fp(0)); !ok {
		t.Fatal("back-store hit under capacity pressure was not promoted to the front")
	}
}

// TestTieredStoreImmutableConflict: the immutability contract holds through
// the tiers — a conflicting Put fails with ErrImmutable and corrupts
// neither store.
func TestTieredStoreImmutableConflict(t *testing.T) {
	front := NewMemoryStore(0)
	back, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewTieredStore(front, back)
	fp := strings.Repeat("23", 32)
	if err := s.Put(fp, meas(6)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fp, meas(6)); err != nil {
		t.Fatalf("idempotent re-Put must succeed: %v", err)
	}
	if err := s.Put(fp, meas(7)); !errors.Is(err, ErrImmutable) {
		t.Fatalf("conflicting Put: err=%v; want ErrImmutable", err)
	}
	// Both tiers still serve the original value.
	for name, st := range map[string]ResultStore{"front": front, "back": back, "tiered": s} {
		m, ok, err := st.Get(fp)
		if err != nil || !ok || m.HomeMsgs != 6 {
			t.Fatalf("%s after conflict: %+v %v %v; want the original value", name, m, ok, err)
		}
	}
}

func TestTieredStorePromotesOnBackHit(t *testing.T) {
	front := NewMemoryStore(0)
	back := NewMemoryStore(0)
	s := NewTieredStore(front, back)
	fp := strings.Repeat("ef", 32)
	if err := back.Put(fp, meas(5)); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.Get(fp)
	if err != nil || !ok || m.HomeMsgs != 5 {
		t.Fatalf("tiered Get = %+v %v %v; want back-store hit", m, ok, err)
	}
	if _, ok, _ := front.Get(fp); !ok {
		t.Fatal("back-store hit was not promoted to the front store")
	}
}

func TestTieredStoreWritesThrough(t *testing.T) {
	front := NewMemoryStore(0)
	back := NewMemoryStore(0)
	s := NewTieredStore(front, back)
	fp := strings.Repeat("01", 32)
	if err := s.Put(fp, meas(9)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := front.Get(fp); !ok {
		t.Fatal("Put did not reach the front store")
	}
	if _, ok, _ := back.Get(fp); !ok {
		t.Fatal("Put did not reach the back store")
	}
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("Len = %d; want the durable store's count, 1", n)
	}
}

// TestDiskStoreLenCountsCreatedFiles: the store counts its directory once,
// at open, and from then on only a Put that creates a file moves the count —
// not a repeated Put, not a refused one — also when Puts race.
func TestDiskStoreLenCountsCreatedFiles(t *testing.T) {
	dir := t.TempDir()
	fp := func(i int) string { return fmt.Sprintf("%064x", i) }
	wantLen := func(s *DiskStore, want int) {
		t.Helper()
		if n, err := s.Len(); err != nil || n != want {
			t.Fatalf("Len = %d, %v; want %d", n, err, want)
		}
	}
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s1.Put(fp(i), meas(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	wantLen(s1, 3)

	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantLen(s2, 3) // counted from the populated directory
	if err := s2.Put(fp(1), meas(1)); err != nil {
		t.Fatalf("duplicate Put: %v", err)
	}
	wantLen(s2, 3)
	if err := s2.Put(fp(1), meas(9)); !errors.Is(err, ErrImmutable) {
		t.Fatalf("conflicting Put: %v; want ErrImmutable", err)
	}
	wantLen(s2, 3)

	const writers, each = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s2.Put(fp(100+w*each+i), meas(1)); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	wantLen(s2, 3+writers*each)
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 3+writers*each {
		t.Fatalf("directory holds %d entries, %v; want %d", len(entries), err, 3+writers*each)
	}
}
