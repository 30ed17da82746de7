package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

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
// the daemon and in-process experiment runs over one -data directory share.
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
	var buf [512]byte
	sum := sha256.Sum256(appendCanonical(buf[:0], b))
	return hex.EncodeToString(sum[:])
}

// appendCanonical appends the canonical form of the JSON value v, which must
// be json.Marshal output (valid and compact). Object members are sorted by
// key at every depth; keys, numbers, literals and strings are copied
// verbatim, except that the \ufffd escape json.Marshal writes for an invalid
// UTF-8 byte in a string becomes a raw U+FFFD, as decoding and re-encoding
// the string would make it.
//
// Keys are compared as bytes. json.Marshal writes a struct field's name
// without escapes, so a key's bytes are its decoded string; a map, the one
// source of keys that need escapes, appears nowhere in a Point.
func appendCanonical(dst, v []byte) []byte {
	switch v[0] {
	case '{':
		type member struct{ key, val []byte }
		var arr [16]member
		ms := arr[:0]
		for v = v[1:]; v[0] != '}'; {
			key, rest := cutValue(v)
			val, rest := cutValue(rest[1:]) // past the ':'
			ms = append(ms, member{key, val})
			for i := len(ms) - 1; i > 0 && keyLess(ms[i].key, ms[i-1].key); i-- {
				ms[i], ms[i-1] = ms[i-1], ms[i]
			}
			if v = rest; v[0] == ',' {
				v = v[1:]
			}
		}
		dst = append(dst, '{')
		for i, m := range ms {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendCanonical(append(append(dst, m.key...), ':'), m.val)
		}
		return append(dst, '}')
	case '[':
		dst = append(dst, '[')
		for v = v[1:]; v[0] != ']'; {
			elem, rest := cutValue(v)
			dst = appendCanonical(dst, elem)
			if v = rest; v[0] == ',' {
				dst = append(dst, ',')
				v = v[1:]
			}
		}
		return append(dst, ']')
	}
	for {
		i := bytes.IndexByte(v, '\\')
		if i < 0 {
			return append(dst, v...)
		}
		n := 2
		if v[i+1] == 'u' {
			n = 6
		}
		dst = append(dst, v[:i]...)
		if string(v[i:i+n]) == `\ufffd` {
			dst = append(dst, "\uFFFD"...)
		} else {
			dst = append(dst, v[i:i+n]...)
		}
		v = v[i+n:]
	}
}

// keyLess orders two object keys, quotes included, by the names between
// the quotes.
func keyLess(a, b []byte) bool {
	return string(a[1:len(a)-1]) < string(b[1:len(b)-1])
}

// cutValue splits the compact JSON value at the start of src from the rest.
func cutValue(src []byte) (v, rest []byte) {
	end := 0 // the index of the value's last byte
	switch src[0] {
	case '"':
		end = closingQuote(src, 0)
	case '{', '[':
		for depth := 0; ; end++ {
			switch src[end] {
			case '"':
				end = closingQuote(src, end)
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			if depth == 0 {
				break
			}
		}
	default:
		for end+1 < len(src) && src[end+1] != ',' && src[end+1] != '}' && src[end+1] != ']' {
			end++
		}
	}
	return src[:end+1], src[end+1:]
}

// closingQuote returns the index of the quote that closes the JSON string
// opening at src[i].
func closingQuote(src []byte, i int) int {
	for i++; src[i] != '"'; i++ {
		if src[i] == '\\' {
			i++
		}
	}
	return i
}
