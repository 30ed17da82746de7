package metrics

import "testing"

func TestInvalRecordLatency(t *testing.T) {
	r := InvalRecord{Start: 100, End: 350}
	if r.Latency() != 250 {
		t.Fatalf("Latency = %d, want 250", r.Latency())
	}
}
