package main

import (
	_ "embed"
	"encoding/json"
)

// defaultSeed is the seed whose output fingerprints are pinned.
const defaultSeed = 1

// pinnedJSON maps workload → fingerprint name → hex digest for the
// default seed at full scale. A pin is checked when the run produced
// that fingerprint (ingest-live's live_epochs only exists when no
// report was lost). A change that alters any of these has
// changed what the program computes, not just how fast.
//
//go:embed fingerprints.json
var pinnedJSON []byte

func checkPinned(ck *checker, workload string, seed int64, got map[string]string) {
	if seed != defaultSeed {
		return
	}
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		ck.expect(false, "fingerprints.json: %v", err)
		return
	}
	for _, k := range sortedKeys(pins[workload]) {
		want := pins[workload][k]
		if g, ok := got[k]; ok {
			ck.expect(g == want, "%s fingerprint %s is %s, pinned %s", workload, k, g, want)
		}
	}
}
