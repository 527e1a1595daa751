package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"locmap/internal/core"
	"locmap/internal/inspector"
	"locmap/internal/sim"
	"locmap/internal/stats"
)

// gatherSrc is an irregular program in the shape of the benchmark's
// gather family: a stream, then OUT[i] = X[IDX[i]] + A[i] through an
// unbound index array, so the compiler defers it to the inspector.
const gatherSrc = `
param N = 4096
param M = 8192
array A[N]
array B[N]
array X[M]
array IDX[N]
array OUT[N]
parallel for i = 0..N work 16 {
  A[i] = B[i]
}
parallel for i = 0..N work 16 {
  OUT[i] = X[IDX[i]] + A[i]
}
`

// twoMachineSimulate is simulate's reference: the default schedule
// and the location-aware run each simulated from the start on its own
// fresh machine, with the telemetry of the location-aware one.
func twoMachineSimulate(t *testing.T, req *SimulateRequest) (*SimResult, bool) {
	t.Helper()
	cfg, opts, res, err := req.compileBound()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p := res.Program
	if req.TimingIters > 0 {
		p.TimingIters = req.TimingIters
	}
	def := sim.TotalCycles(inspector.RunBaseline(sim.New(cfg), p))
	sys := sim.New(cfg)
	var la int64
	if res.NeedsInspector {
		la = inspector.Run(sys, p, core.NewMapper(opts.Mapper), inspector.DefaultOverhead()).TotalCycles()
	} else {
		la = sim.TotalCycles(sys.RunTiming(p, func(int) *sim.Schedule { return res.Schedule }))
	}
	return &SimResult{
		DefaultCycles:  def,
		LocmapCycles:   la,
		ImprovementPct: stats.PctReduction(float64(def), float64(la)),
		Telemetry:      telemetryFrom(sys.Stats(), sys.LegSummaries()),
	}, res.NeedsInspector
}

// TestSimulateMatchesTwoMachines: /v1/simulate runs the baseline and
// the location-aware schedule on one machine, and for an inspector
// program shares their profiled iteration 0. Its answer must equal
// what two separate fresh machines compute, field for field, for an
// irregular gather at one and three timing iterations under both LLC
// organizations, and for a compiled (regular) schedule.
func TestSimulateMatchesTwoMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, src string
		inspector bool
	}{
		{"gather", gatherSrc, true},
		{"triad", triadSrc, false},
	}
	for _, c := range cases {
		for _, llc := range []string{"private", "shared"} {
			for _, iters := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/T%d", c.name, llc, iters), func(t *testing.T) {
					req := SimulateRequest{CommonRequest: CommonRequest{Source: c.src, LLC: llc}, TimingIters: iters}
					resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("status %d: %s", resp.StatusCode, body)
					}
					var got SimResult
					if err := json.Unmarshal(decodeMapResponse(t, body).Plan, &got); err != nil {
						t.Fatalf("bad sim result: %v", err)
					}

					ref, needsInspector := twoMachineSimulate(t, &req)
					if needsInspector != c.inspector || got.Plan.NeedsInspector != c.inspector {
						t.Fatalf("needs inspector: compile %v, response %v, want %v", needsInspector, got.Plan.NeedsInspector, c.inspector)
					}
					// Round-trip the reference through JSON so both sides
					// carry the wire encoding's float values.
					b, err := json.Marshal(ref)
					if err != nil {
						t.Fatalf("marshal: %v", err)
					}
					var want SimResult
					if err := json.Unmarshal(b, &want); err != nil {
						t.Fatalf("unmarshal: %v", err)
					}
					if got.DefaultCycles != want.DefaultCycles || got.LocmapCycles != want.LocmapCycles ||
						got.ImprovementPct != want.ImprovementPct {
						t.Errorf("cycles default %d locmap %d (%g%%), two machines %d %d (%g%%)",
							got.DefaultCycles, got.LocmapCycles, got.ImprovementPct,
							want.DefaultCycles, want.LocmapCycles, want.ImprovementPct)
					}
					if !reflect.DeepEqual(got.Telemetry, want.Telemetry) {
						t.Errorf("telemetry %+v, two machines %+v", got.Telemetry, want.Telemetry)
					}
				})
			}
		}
	}
}
