package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// encoderBytes is what writeJSON wrote while it was json.Encoder under
// SetIndent("", " "): the oracle for its body.
func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	return buf.Bytes()
}

// TestWriteJSONMatchesEncoder: for every reply type the daemon writes, with
// strings JSON must escape, non-ASCII text and nested empty collections,
// writeJSON's body is byte-identical to json.Encoder's.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	hostile := "<script>a&b</script> \"quoted\" back\\slash tab\t nul\x00 bad\xff \u00e9 \u96ea \u2028\u2029"
	var lat sim.Sample
	for _, v := range []float64{131, 87.5, 1e21, 0.000125, -3} {
		lat.Add(v)
	}
	meas := sweep.Measures{
		Latency: lat, HomeMsgs: 2.25, Groups: 3, FlitHops: 1e-7, Messages: 12, Completed: 5,
		Occupancy: &sweep.OccupancyMeasures{PeakLink: hostile, MeanLinkUtil: 0.5},
		App:       &sweep.AppMeasures{Time: 99, Sharers: []int{0, 3, 0}},
	}
	result := &JobResult{
		ID: hostile, Completed: 1, CacheHits: 1,
		Results: []PointResult{
			{Index: 0, Fingerprint: strings.Repeat("ab", 32), Source: SourceCache, Measures: meas},
			{Index: 1, Source: SourceRun, Partial: true},
		},
	}
	values := []any{
		result,
		&JobResult{ID: "empty", Results: []PointResult{}},
		JobResult{},
		JobStatus{ID: "job-000001", State: "done", Done: 1, Total: 1, Result: result, Priority: -2},
		JobStatus{ID: "x", State: "failed", Error: hostile},
		[]JobStatus{},
		[]JobStatus(nil),
		ResultResponse{Fingerprint: strings.Repeat("0f", 32), Measures: meas},
		ResultResponse{},
		StatsResponse{Counters: Counters{Requests: math.MaxUint64, CacheHits: 7}, HitRate: 1.0 / 3, QueueDepth: 4, Draining: true},
		map[string]string{"error": hostile},
		map[string]string{"id": "job-000002"},
		map[string]string{},
		map[string]any{
			"counters": Counters{},
			"requests": []RequestMetric{},
			"nested":   []any{[]any{}, map[string]any{}, []any{[]any{}, map[string]any{"": []int{}}}},
			hostile:    nil,
		},
		"just a string <&>",
		42,
	}
	for _, v := range values {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%T: status %d, Content-Type %q", v, rec.Code, rec.Header().Get("Content-Type"))
		}
		if want := encoderBytes(t, v); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%T: writeJSON wrote\n%s\nwant json.Encoder's\n%s", v, rec.Body.Bytes(), want)
		}
	}
}

// TestWriteJSONRefusesUnencodable: a reply json.Marshal rejects, such as
// measures carrying NaN, answers 500 with an error body, not its intended
// status with an empty one.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ResultResponse{Measures: sweep.Measures{HomeMsgs: math.NaN()}})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q is not a JSON object: %v", rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(body["error"], "NaN") {
		t.Errorf("status %d, body %q; want 500 and an error naming the NaN", rec.Code, rec.Body)
	}
}

// FuzzIndentJSON: any document json.Valid accepts, once compacted as
// json.Marshal would leave it, indents to exactly json.Indent's bytes.
func FuzzIndentJSON(f *testing.F) {
	for _, seed := range []string{
		`{"id":"job-000001","results":[{"index":0,"measures":{"latency":[131,87.5]}}],"completed":1}`,
		`{"a":{},"b":[],"c":[[],{}],"d":[{"e":[{}]}]}`,
		`["<&>","\"quoted\" \\ ",":,{}[]","  é 雪"]`,
		`  [ 1 , -2.5e10 , true , false , null ]  `,
		`"top level"`,
		`0`,
		`{"":""}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if !json.Valid(doc) {
			return
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, doc); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", " "); err != nil {
			t.Fatalf("Indent: %v", err)
		}
		if got := appendIndent(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndent(%s)\n got %s\nwant %s", compact.Bytes(), got, want.Bytes())
		}
	})
}
