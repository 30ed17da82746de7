package apps

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// digest hashes every Op of every program of w, in program order, with each
// program's length first, so that moving an Op between programs changes it.
func digest(w Workload) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(w.SharedBlocks))
	for _, prog := range w.Programs {
		put(uint64(len(prog)))
		for _, op := range prog {
			put(uint64(op.Kind))
			put(uint64(op.Block))
			put(uint64(op.Cycles))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedTracesPinned pins the reference streams the generators emit:
// the four applications ByName knows at their published sizes, and the
// 64-processor sizes the app-replay benchmark generates, at fixed seeds. A
// generator rewrite that is meant to be a pure speed-up must leave every
// digest unchanged; one that moves a digest changes every replay of it.
func TestGeneratedTracesPinned(t *testing.T) {
	gen := func(name string) func() Workload {
		return func() Workload {
			w, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
	}
	cases := []struct {
		name string
		gen  func() Workload
		want string
	}{
		{"Barnes-Hut", gen("Barnes-Hut"), "9a3be1a19f5340ab45537e2a14976ca68373c59883fa956089880005b9556718"},
		{"LU", gen("LU"), "16c9d7540a98a7b00dde488159e761df43f94f3dea181064a4bd51d876a3cb35"},
		{"APSP", gen("APSP"), "81cad9c381c8ed0479b73ceac4ca44cb4104d84dd5ac75b7bf9e3a96abc8a233"},
		{"Jacobi", gen("Jacobi"), "ab2b10e70678c95b7b7b7376b7a52556c247863d274d4eccff9e157517e63d78"},
		{"Barnes-Hut/512/64", func() Workload {
			return BarnesHut(BarnesConfig{Bodies: 512, Procs: 64, Seed: 7})
		}, "a552eacc2229c236c25383b3c147df6753902677495f375ee5f2ba5efdd510b6"},
		{"LU/256/64", func() Workload { return LU(LUConfig{N: 256, Procs: 64}) }, "92502049a3c7ee6910727b1e80415d11b798bc158c39fa1741840867a68516e2"},
		{"APSP/128/64", func() Workload {
			return APSP(APSPConfig{Vertices: 128, Procs: 64, Seed: 9})
		}, "008552f1a9bfe2d827c1ce09f3eed3642eb79bf9355a1c58303df7a9289793d0"},
	}
	for _, tc := range cases {
		if got := digest(tc.gen()); got != tc.want {
			t.Errorf("%s: trace digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
