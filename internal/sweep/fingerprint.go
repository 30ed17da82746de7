package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/coherence"
)

// Fingerprint returns the canonical content hash of the computation a point
// selects: a hex SHA-256 over the sorted-key JSON form of every field
// except Index (the point's grid position, which does not influence the
// result — the seed is already derived by the time a point exists). An
// empty Tune names the default machine, as a nil one does, so both hash
// alike; a point without a variant hashes as it did before variants existed.
//
// Because identical (config, seed) points are deterministic, a fingerprint
// names an immutable value: two points with equal fingerprints produce
// byte-identical Measures. That is what makes it safe as the coalescing and
// content-addressed-cache key of the result store (internal/service), which
// the daemon and invalsweep -data share.
//
// The hash is computed over canonical JSON — object keys sorted at every
// nesting depth, numbers kept verbatim (no float64 round-trip, so full
// uint64 seeds never collide) — which makes it independent of struct field
// order and Go map iteration order.
func (p Point) Fingerprint() string {
	q := p
	q.Index = 0
	if q.Tune != nil && *q.Tune == (coherence.Variant{}) {
		q.Tune = nil
	}
	b, err := json.Marshal(q)
	if err != nil {
		panic(fmt.Sprintf("sweep: point not serializable: %v", err))
	}
	canon, err := canonicalJSON(b)
	if err != nil {
		panic(fmt.Sprintf("sweep: point not canonicalizable: %v", err))
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// canonicalJSON re-encodes a JSON document with object keys sorted at every
// depth. Numbers are decoded as json.Number so their exact source digits
// survive the round trip.
func canonicalJSON(in []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(in))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case json.Number:
		buf.WriteString(x.String())
	default:
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(b)
	}
	return nil
}
