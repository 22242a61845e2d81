package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ipusim/internal/core"
)

// defaultSeed is the seed whose pass outputs are pinned below. It is the
// program's own evaluation default; seed 0 means the same.
const defaultSeed = 42

// pinned holds, per workload, the digest of one pass's outputs at
// defaultSeed. A pure speed change leaves them untouched; a change that
// alters any simulated result (or, on matrix, any rendered table or
// figure) must say so and re-pin them with -print-digest.
var pinned = map[string]string{
	"matrix":     "883d7356510a3bc13900532887a34be78b4a7c9cb748a01f445f403acb970530",
	"closedloop": "83041f3b9fae7678dcd595653903ccb160a470661f5e1b322b285fb9999e4fe6",
	"full":       "f477c384d76737c80fc7522dfeca1ce3bb5c5db3f7ae14a93b66124469c00243",
	"serve":      "bc25d18a0771763e691cf287018f58f43d2eeb2850783061bf7a2e598b0a4796",
}

// digestResults returns the digest of a unit's simulated Results.
func digestResults(results []*core.Result) string {
	b, err := json.Marshal(results)
	if err != nil {
		// core.Result holds only numbers, strings and slices of them.
		panic(err)
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// passDigest folds a pass's unit digests, in order, and its extra output
// into one digest.
func passDigest(p *passResult) string {
	h := sha256.New()
	for _, u := range p.units {
		fmt.Fprintf(h, "%s %s\n", u.name, u.digest)
	}
	h.Write(p.extra)
	return hex.EncodeToString(h.Sum(nil))
}

// checkPinned compares the reference pass of a defaultSeed run against the
// pinned digest of its workload.
func checkPinned(workload string, seed int64, got string, pins map[string]string) error {
	if seed != defaultSeed {
		return nil
	}
	want, ok := pins[workload]
	if !ok {
		return fmt.Errorf("%s: no pinned digest", workload)
	}
	if got != want {
		return fmt.Errorf("%s: pass digest %s, pinned %s", workload, got, want)
	}
	return nil
}

// compareUnits checks that pass p reproduced the reference pass unit by
// unit, and returns how many units differ (a unit that errored counts as
// differing) with the first difference.
func compareUnits(ref, p *passResult) (int, error) {
	if len(ref.units) != len(p.units) {
		return len(p.units), fmt.Errorf("pass has %d units, reference %d", len(p.units), len(ref.units))
	}
	bad := 0
	var first error
	for i, u := range p.units {
		r := ref.units[i]
		if u.err == nil && u.name == r.name && u.digest == r.digest {
			continue
		}
		bad++
		if first == nil {
			if u.err != nil {
				first = fmt.Errorf("%s: %w", u.name, u.err)
			} else {
				first = fmt.Errorf("%s: output digest %s differs from the reference %s", u.name, u.digest, r.digest)
			}
		}
	}
	if bad == 0 && string(p.extra) != string(ref.extra) {
		return 1, fmt.Errorf("rendered report differs from the reference")
	}
	return bad, first
}
