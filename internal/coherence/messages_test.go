package coherence

import "testing"

// mustPanic runs fn and fails the test unless it panics: the exhaustive
// analyzer requires switches over msgType to turn unknown members into loud
// failures, and these tests pin that behavior down.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestUnknownMessageTypePanics(t *testing.T) {
	bogus := msgType(127)
	mustPanic(t, "carriesData(unknown)", func() { bogus.carriesData() })
	mustPanic(t, "vnFor(unknown)", func() { vnFor(bogus) })
}

func TestCarriesDataPartition(t *testing.T) {
	data := map[msgType]bool{
		fetchReply: true, readReply: true, writeReply: true,
	}
	for m := readReq; m <= writeReply; m++ {
		if got := m.carriesData(); got != data[m] {
			t.Errorf("carriesData(%v) = %v, want %v", m, got, data[m])
		}
	}
}
