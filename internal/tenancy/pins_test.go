package tenancy

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"locmap/internal/compiler"
	"locmap/internal/estimate"
	"locmap/internal/sim"
	"locmap/internal/topology"
	"locmap/internal/workloads"
)

// updatePins rewrites testdata/coplace_pins.json from the current
// search:
//
//	go test ./internal/tenancy -run TestCoPlacePins -update-pins
//
// Rewrite it only for an intended change of the search's results.
var updatePins = flag.Bool("update-pins", false, "rewrite testdata/coplace_pins.json")

const coplacePinsPath = "testdata/coplace_pins.json"

// pin is one seeded co-placement's JSON-encoded result.
type pin struct {
	Name   string          `json:"name"`
	Result json.RawMessage `json:"result"`
}

// multiprogTenants returns the §5 multiprogrammed mix (moldyn, swim,
// hpccg, fft) as tenants on the default chip, each with the affinities
// the estimate tier extracts from its compilation.
func multiprogTenants(t *testing.T) (*topology.Mesh, []Tenant) {
	t.Helper()
	cfg := sim.DefaultConfig()
	est := estimate.New(estimate.Config{Cfg: cfg})
	var tenants []Tenant
	for _, name := range []string{"moldyn", "swim", "hpccg", "fft"} {
		res, err := compiler.CompileProgram(workloads.MustNew(name, 1), compiler.Options{Cfg: cfg})
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		tenants = append(tenants, Tenant{ID: name, Affs: est.Affinities(res)})
	}
	return cfg.Mesh, tenants
}

// TestCoPlacePins pins seeded CoPlace results byte for byte: the first
// two, three and four tenants of the multiprogrammed mix under three
// seeds. TestCoPlaceDeterministic compares two runs of one build;
// these pins catch a change to the search itself, such as its moves,
// its acceptance draws or its cooling.
func TestCoPlacePins(t *testing.T) {
	mesh, tenants := multiprogTenants(t)
	var got []pin
	for _, n := range []int{2, 3, 4} {
		for _, seed := range []int64{1, 7, 42} {
			pl, err := CoPlace(CoPlaceConfig{Mesh: mesh, Seed: seed}, tenants[:n])
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(pl)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, pin{Name: fmt.Sprintf("n%d/seed%d", n, seed), Result: b})
		}
	}

	if *updatePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(coplacePinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(coplacePinsPath)
	if err != nil {
		t.Fatalf("missing pins (run with -update-pins to create): %v", err)
	}
	var want []pin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", coplacePinsPath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d pins, the test produced %d", coplacePinsPath, len(want), len(got))
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
