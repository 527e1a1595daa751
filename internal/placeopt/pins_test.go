package placeopt

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"locmap/internal/cache"
	"locmap/internal/sim"
)

// updatePins rewrites testdata/search_pins.json from the current
// search:
//
//	go test ./internal/placeopt -run TestSearchPins -update-pins
//
// Rewrite it only for an intended change of the search's results.
var updatePins = flag.Bool("update-pins", false, "rewrite testdata/search_pins.json")

const searchPinsPath = "testdata/search_pins.json"

// pin is one seeded search's JSON-encoded result.
type pin struct {
	Name   string          `json:"name"`
	Result json.RawMessage `json:"result"`
}

// TestSearchPins pins seeded Search results byte for byte: both LLC
// organizations, three seeds and both site pools on the mix.
// TestSearchDeterministic compares two runs of one build; these pins
// catch a change to the search itself, such as its moves, its
// acceptance draws or its cooling.
func TestSearchPins(t *testing.T) {
	var got []pin
	for _, org := range []cache.Organization{cache.Private, cache.SharedSNUCA} {
		cfg := sim.DefaultConfig()
		cfg.LLCOrg = org
		res := compileMix(t, cfg)
		for _, seed := range []int64{1, 7, 42} {
			for _, sites := range []string{SitesEdge, SitesAny} {
				r, err := Search(Config{Target: cfg, Candidates: 300, TopK: 4, Seed: seed, Sites: sites}, res)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, pin{Name: fmt.Sprintf("%v/seed%d/%s", org, seed, sites), Result: b})
			}
		}
	}

	if *updatePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(searchPinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(searchPinsPath)
	if err != nil {
		t.Fatalf("missing pins (run with -update-pins to create): %v", err)
	}
	var want []pin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", searchPinsPath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d pins, the test produced %d", searchPinsPath, len(want), len(got))
	}
	for i, g := range got {
		var w bytes.Buffer
		if err := json.Compact(&w, want[i].Result); err != nil {
			t.Fatalf("corrupt pin %s: %v", want[i].Name, err)
		}
		if want[i].Name != g.Name || !bytes.Equal(w.Bytes(), g.Result) {
			t.Errorf("%s: result changed\n got %s\nwant %s: %s", g.Name, g.Result, want[i].Name, w.Bytes())
		}
	}
}
