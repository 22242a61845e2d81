package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzCanonicalKey checks the content address on any request body the
// daemon decodes: canonicalisation is idempotent, the canonical request
// survives an encode/decode round trip unchanged, and a request shares
// its key with its own canonical form.
func FuzzCanonicalKey(f *testing.F) {
	for _, tc := range pinnedV2Keys {
		b, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"kind":"run","queueDepth":16,"tenants":[{},{"name":"vip","weight":3}]}`))
	f.Add([]byte(`{"kind":"run","queueDepth":8,"writeCache":{"capacityBytes":1048576}}`))
	f.Add([]byte(`{"kind":"cell","param":"planes","paramValue":4,"timeout":"1m","parallelism":2}`))
	f.Add([]byte(contentionTestBody))
	f.Add([]byte(`{"kind":"contention"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		canon := canonicalRequest(req, canonicalTestScale)
		enc := mustMarshal(t, canon)
		if again := mustMarshal(t, canonicalRequest(canon, canonicalTestScale)); !bytes.Equal(again, enc) {
			t.Fatalf("canonicalisation not idempotent:\n once %s\ntwice %s", enc, again)
		}
		var decoded JobRequest
		if err := json.Unmarshal(enc, &decoded); err != nil {
			t.Fatalf("canonical request does not decode: %v\n%s", err, enc)
		}
		if round := mustMarshal(t, canonicalRequest(decoded, canonicalTestScale)); !bytes.Equal(round, enc) {
			t.Fatalf("canonical request changed across a round trip:\n  before %s\n   after %s", enc, round)
		}
		if a, b := jobKey(req, canonicalTestScale), jobKey(canon, canonicalTestScale); a != b {
			t.Fatalf("request key %s differs from its canonical form's key %s", a, b)
		}
	})
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
