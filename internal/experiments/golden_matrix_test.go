package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// TestGoldenWorkersMatrix re-runs the golden job set with the region
// engine parallelized and compares every rendered table against the
// same checked-in goldens as TestGoldenTables: worker counts must be
// invisible in the output, down to the last digit. A fresh Runner per
// level matters — fingerprints exclude Workers (by design), so a shared
// runner would answer later levels from the first level's memo table
// and the test would prove nothing.
//
// Under -race the matrix shrinks to a representative slice (two worker
// counts, two tables spanning private/shared and the multiprogrammed
// path, whose co-runs drive RunNestOn's partitioned barriers) so `make
// check` keeps the protocol raced on every run without a ten-minute
// bill. The raced co-runs take 75 s at workers=2 and 115 s at
// workers=8 on 2 vCPUs, so the multi row races at workers=2 only.
func TestGoldenWorkersMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing goldens (run TestGoldenTables -update-golden first): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", goldenPath, err)
	}
	byName := make(map[string]goldenEntry, len(want))
	for _, e := range want {
		byName[e.Name] = e
	}

	levels := []int{2, 4, 8}
	tables := goldenJobs()
	if raceEnabled {
		levels = []int{2, 8}
		subset := tables[:0]
		for _, g := range tables {
			if g.name == "fig7" || g.name == "multi" {
				subset = append(subset, g)
			}
		}
		tables = subset
	}

	for _, workers := range levels {
		runner := NewRunner(0)
		runner.SimWorkers = workers
		for _, g := range tables {
			if raceEnabled && g.name == "multi" && workers != 2 {
				continue
			}
			tab := g.run(Options{Apps: g.apps, Jobs: 1, Runner: runner})
			text := tab.String()
			sum := sha256.Sum256([]byte(text))
			got := hex.EncodeToString(sum[:])
			exp, ok := byName[g.name]
			if !ok {
				t.Fatalf("%s: no golden entry", g.name)
			}
			if got != exp.SHA256 {
				t.Errorf("%s at workers=%d: table diverged from the serial golden\n--- golden ---\n%s\n--- got ---\n%s",
					g.name, workers, exp.Table, text)
			}
		}
	}
}
