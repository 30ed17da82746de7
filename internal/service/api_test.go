package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobRequest feeds arbitrary bytes through the job endpoint's decoding
// path: JSON into a JobRequest, then Spec. Decoding must never panic; a spec
// it accepts must pass validateSpec and keep every mesh side within maxK; and
// every point must keep its fingerprint across the journal's round trip, so a
// resumed job resolves the same store entries it was accepted for.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"points":[{"k":4,"scheme":"UI-UA","d":2,"pattern":"random","trials":1,"seed":1}]}`,
		`{"id":"async-1","points":[{"k":4,"scheme":"UI-UA","d":3,"pattern":"clustered","trials":2,"seed":9}]}`,
		`{"points":[{"k":4,"scheme":"MI-MA-ec","d":2,"pattern":"random","trials":2,"seed":3},{"k":4,"scheme":"MI-MA-ec","d":3,"pattern":"random","trials":2,"seed":3}]}`,
		`{"id":"load-1-warm","points":[{"k":4,"scheme":"MI-MA-pa","d":2,"pattern":"clustered","trials":2,"seed":18446744073709551615}],"priority":3,"timeout_ms":250}`,
		`{"points":[{"k":8,"scheme":"MI-MA-ec","d":6,"pattern":"random","trials":2,"seed":1,"chaos_seed":5,"faults":{"seed":7,"drop_rate":0.1,"ack_loss_rate":0.05,"dead_links":2,"death_window":4096}}]}`,
		`{"id":"../x","points":[{"k":4,"scheme":"UI-UA","d":2,"pattern":"random","trials":1,"seed":1}]}`,
		`{"points":[{"k":100000,"scheme":"UI-UA","d":1,"pattern":"random","trials":1}]}`,
		`{"points":[{"k":4,"scheme":"UI-UA","d":99,"pattern":"random","trials":1}]}`,
		`{"points":[],"timeout_ms":-1}`,
		`{oops`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var jr JobRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&jr) != nil {
			return
		}
		spec, err := jr.Spec()
		if err != nil {
			return
		}
		if err := validateSpec(&spec); err != nil {
			t.Fatalf("Spec accepted a job validateSpec refuses: %v", err)
		}
		for i, p := range spec.Points {
			if p.K < 2 || p.K > maxK {
				t.Fatalf("point %d: accepted mesh side k=%d outside 2..%d", i, p.K, maxK)
			}
		}
		data, err := json.MarshalIndent(jobFile{Version: journalVersion, Job: spec}, "", " ")
		if err != nil {
			t.Fatalf("journal encode: %v", err)
		}
		var back jobFile
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("journal decode: %v", err)
		}
		if len(back.Job.Points) != len(spec.Points) {
			t.Fatalf("journal round trip kept %d of %d points", len(back.Job.Points), len(spec.Points))
		}
		for i := range spec.Points {
			if got, want := back.Job.Points[i].Fingerprint(), spec.Points[i].Fingerprint(); got != want {
				t.Fatalf("point %d: fingerprint %s after the journal round trip; %s before", i, got, want)
			}
		}
	})
}
