package server

import (
	"fmt"
	"strconv"
	"strings"

	"locmap/internal/cache"
	"locmap/internal/compiler"
	"locmap/internal/core"
	"locmap/internal/mem"
	"locmap/internal/plancache"
	"locmap/internal/sim"
	"locmap/internal/topology"
)

// CommonRequest is every field /v1/map and /v1/simulate share: the
// program and the target description. Both request types embed it, so
// validation, the compiler options and the plan-cache spec are
// derived from one struct and the two endpoints' specs cannot drift
// (the bug class where a new knob reaches one endpoint's fingerprint
// but not the other's). Zero values select the paper's Table 4
// defaults (6x6 mesh, 3x3 regions, private LLC).
type CommonRequest struct {
	// Source is the program in the locmap input language. Required.
	Source string `json:"source"`

	// Params supplies values for symbolic loop bounds.
	Params map[string]int64 `json:"params,omitempty"`

	// Mesh is the mesh geometry as "WxH" (default "6x6").
	Mesh string `json:"mesh,omitempty"`

	// Regions is the region grid as "XxY" (default "3x3").
	Regions string `json:"regions,omitempty"`

	// LLC selects the last-level-cache organization: "private"
	// (default) or "shared" (S-NUCA, Algorithm 2).
	LLC string `json:"llc,omitempty"`

	// CMEAccuracy sets the cache-miss-estimator accuracy / α knob
	// (0 → the per-application default band, 1 → oracle).
	CMEAccuracy float64 `json:"cme_accuracy,omitempty"`

	// Seed drives the intra-region shuffle (default 0).
	Seed int64 `json:"seed,omitempty"`

	// FineMAC switches memory-affinity computation to the
	// finer-granularity inverse-distance weights (the §3.9 ablation).
	FineMAC bool `json:"fine_mac,omitempty"`

	// Intra selects the within-region core-assignment policy:
	// "random" (default, the paper's shuffle) or "roundrobin".
	Intra string `json:"intra,omitempty"`

	// MCs pins the memory controllers to explicit mesh coordinates
	// ([x,y] pairs in MC-id order) instead of the default corner
	// placement. Coordinates must lie inside the mesh and not overlap.
	MCs [][2]int `json:"mcs,omitempty"`

	// Banks concentrates the shared-LLC home banks on an explicit tile
	// subset ([x,y] pairs in interleave order). Requires llc "shared".
	Banks [][2]int `json:"banks,omitempty"`
}

// MapRequest is the body of POST /v1/map.
type MapRequest struct {
	CommonRequest
}

// SimulateRequest is the body of POST /v1/simulate: a mapping request
// plus simulation controls.
type SimulateRequest struct {
	CommonRequest

	// TimingIters overrides the program's timing-loop trip count
	// (0 keeps the source's value).
	TimingIters int `json:"timing_iters,omitempty"`
}

// Resolved is the effective configuration a request mapped to after
// defaults were applied, echoed in every successful response so
// clients see exactly what target their plan was computed for.
type Resolved struct {
	Mesh        string  `json:"mesh"`
	Regions     string  `json:"regions"`
	LLC         string  `json:"llc"`
	CMEAccuracy float64 `json:"cme_accuracy"`
	Seed        int64   `json:"seed"`
	FineMAC     bool    `json:"fine_mac"`
	Intra       string  `json:"intra"`

	// MCs and Banks echo a custom physical placement (absent for the
	// default corner chip).
	MCs   [][2]int `json:"mcs,omitempty"`
	Banks [][2]int `json:"banks,omitempty"`

	// TimingIters is the simulate-only timing-loop override (0 = the
	// source's own value; always 0 for /v1/map).
	TimingIters int `json:"timing_iters,omitempty"`
}

// Validate extends CommonRequest validation with the simulate-only
// fields.
func (r *SimulateRequest) Validate() error {
	if r.TimingIters < 0 {
		return fmt.Errorf("timing_iters must be >= 0, got %d", r.TimingIters)
	}
	return r.CommonRequest.Validate()
}

// spec extends the shared spec with the simulate-only knobs, so two
// simulations differing only in timing_iters never share a cache
// entry.
func (r *SimulateRequest) spec(kind string) (plancache.Spec, error) {
	sp, err := r.CommonRequest.spec(kind)
	if err != nil {
		return plancache.Spec{}, err
	}
	sp.TimingIters = r.TimingIters
	return sp, nil
}

// resolved extends the shared echo with the simulate-only override.
func (r *SimulateRequest) resolved() Resolved {
	res := r.CommonRequest.resolved()
	res.TimingIters = r.TimingIters
	return res
}

// ParseGrid parses a "WxH" geometry string into its two positive
// dimensions. It is the shared validation helper behind the server's
// mesh/regions fields and cmd/locmap's -mesh/-regions flags.
func ParseGrid(s string) (int, int, error) {
	a, b, ok := strings.Cut(s, "x")
	if !ok {
		return 0, 0, fmt.Errorf("expected WxH, got %q", s)
	}
	w, err := strconv.Atoi(a)
	if err != nil {
		return 0, 0, fmt.Errorf("bad width in %q: %v", s, err)
	}
	h, err := strconv.Atoi(b)
	if err != nil {
		return 0, 0, fmt.Errorf("bad height in %q: %v", s, err)
	}
	if w <= 0 || h <= 0 {
		return 0, 0, fmt.Errorf("dimensions must be positive, got %q", s)
	}
	return w, h, nil
}

// ParseLLC validates an LLC-organization name. The empty string means
// private.
func ParseLLC(s string) (cache.Organization, error) {
	switch s {
	case "", "private":
		return cache.Private, nil
	case "shared":
		return cache.SharedSNUCA, nil
	default:
		return 0, fmt.Errorf("llc must be %q or %q, got %q", "private", "shared", s)
	}
}

// ParseIntra validates a within-region placement policy name. The
// empty string means random (the paper's default shuffle).
func ParseIntra(s string) (core.IntraPolicy, error) {
	switch s {
	case "", "random":
		return core.IntraRandom, nil
	case "roundrobin":
		return core.IntraRoundRobin, nil
	default:
		return 0, fmt.Errorf("intra must be %q or %q, got %q", "random", "roundrobin", s)
	}
}

// BuildTarget validates a (mesh, regions, llc) triple and builds the
// simulator config describing that machine. Empty strings select the
// defaults. It is shared by the server handlers and cmd/locmap.
func BuildTarget(mesh, regions, llc string) (sim.Config, error) {
	if mesh == "" {
		mesh = "6x6"
	}
	if regions == "" {
		regions = "3x3"
	}
	w, h, err := ParseGrid(mesh)
	if err != nil {
		return sim.Config{}, fmt.Errorf("mesh: %v", err)
	}
	rx, ry, err := ParseGrid(regions)
	if err != nil {
		return sim.Config{}, fmt.Errorf("regions: %v", err)
	}
	org, err := ParseLLC(llc)
	if err != nil {
		return sim.Config{}, err
	}
	m, err := topology.New(w, h, rx, ry, topology.MCCorners)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig()
	cfg.Mesh = m
	cfg.LLCOrg = org
	return cfg, nil
}

// BuildTargetPlacement is BuildTarget plus an optional custom physical
// placement: explicit MC coordinates and/or a shared-LLC bank subset.
// Empty slices keep the default corner MCs and the full bank space. It
// is the single validation + construction path for every endpoint that
// accepts the shared target block.
func BuildTargetPlacement(mesh, regions, llc string, mcs, banks [][2]int) (sim.Config, error) {
	cfg, err := BuildTarget(mesh, regions, llc)
	if err != nil {
		return sim.Config{}, err
	}
	if len(mcs) > 0 {
		coords := make([]topology.Coord, len(mcs))
		for i, c := range mcs {
			coords[i] = topology.Coord{X: c[0], Y: c[1]}
		}
		m, err := cfg.Mesh.WithMCs(coords)
		if err != nil {
			return sim.Config{}, fmt.Errorf("mcs: %v", err)
		}
		cfg.Mesh = m
	}
	if len(banks) > 0 {
		if cfg.LLCOrg != cache.SharedSNUCA {
			return sim.Config{}, fmt.Errorf("banks requires llc %q", "shared")
		}
		seen := make(map[[2]int]bool, len(banks))
		nodes := make([]int, len(banks))
		for i, c := range banks {
			if c[0] < 0 || c[0] >= cfg.Mesh.Width || c[1] < 0 || c[1] >= cfg.Mesh.Height {
				return sim.Config{}, fmt.Errorf("banks: bank %d at (%d,%d) outside %dx%d mesh",
					i, c[0], c[1], cfg.Mesh.Width, cfg.Mesh.Height)
			}
			if seen[c] {
				return sim.Config{}, fmt.Errorf("banks: duplicate bank at (%d,%d)", c[0], c[1])
			}
			seen[c] = true
			nodes[i] = int(cfg.Mesh.NodeAt(topology.Coord{X: c[0], Y: c[1]}))
		}
		cfg.AddrMap = mem.NewBankSubset(sim.AddrMapFor(cfg), nodes, cfg.Mesh.NumNodes())
	}
	return cfg, nil
}

// Validate checks the request without building anything.
func (r *CommonRequest) Validate() error {
	if strings.TrimSpace(r.Source) == "" {
		return fmt.Errorf("source is required")
	}
	if r.CMEAccuracy < 0 || r.CMEAccuracy > 1 {
		return fmt.Errorf("cme_accuracy must be in [0,1], got %g", r.CMEAccuracy)
	}
	if _, err := ParseIntra(r.Intra); err != nil {
		return err
	}
	_, err := BuildTargetPlacement(r.Mesh, r.Regions, r.LLC, r.MCs, r.Banks)
	return err
}

// options builds the compiler options for the request's target.
func (r *CommonRequest) options() (sim.Config, compiler.Options, error) {
	cfg, err := BuildTargetPlacement(r.Mesh, r.Regions, r.LLC, r.MCs, r.Banks)
	if err != nil {
		return sim.Config{}, compiler.Options{}, err
	}
	intra, err := ParseIntra(r.Intra)
	if err != nil {
		return sim.Config{}, compiler.Options{}, err
	}
	opts := compiler.Options{
		Cfg:         cfg,
		CMEAccuracy: r.CMEAccuracy,
		Params:      r.Params,
	}
	opts.Mapper.Mesh = cfg.Mesh
	opts.Mapper.Seed = r.Seed
	opts.Mapper.FineMAC = r.FineMAC
	opts.Mapper.Intra = intra
	return cfg, opts, nil
}

// spec derives the plan-cache spec (fingerprint ingredients) for the
// request under the given result namespace.
func (r *CommonRequest) spec(kind string) (plancache.Spec, error) {
	cfg, err := BuildTargetPlacement(r.Mesh, r.Regions, r.LLC, r.MCs, r.Banks)
	if err != nil {
		return plancache.Spec{}, err
	}
	intra, err := ParseIntra(r.Intra)
	if err != nil {
		return plancache.Spec{}, err
	}
	return plancache.Spec{
		Source:    r.Source,
		Params:    r.Params,
		MeshW:     cfg.Mesh.Width,
		MeshH:     cfg.Mesh.Height,
		RegionsX:  cfg.Mesh.RegionsX,
		RegionsY:  cfg.Mesh.RegionsY,
		SharedLLC: cfg.LLCOrg == cache.SharedSNUCA,
		Alpha:     r.CMEAccuracy,
		Seed:      r.Seed,
		FineMAC:   r.FineMAC,
		Intra:     int(intra),
		MCs:       r.MCs,
		Banks:     r.Banks,
		Kind:      kind,
	}, nil
}

// resolved reports the effective configuration after defaults. It
// assumes Validate has succeeded.
func (r *CommonRequest) resolved() Resolved {
	cfg, err := BuildTargetPlacement(r.Mesh, r.Regions, r.LLC, r.MCs, r.Banks)
	if err != nil {
		// serve() only calls resolved() after Validate, which runs
		// BuildTarget on the same inputs.
		panic(fmt.Sprintf("resolved() on unvalidated request: %v", err))
	}
	intra, _ := ParseIntra(r.Intra)
	llc := "private"
	if cfg.LLCOrg == cache.SharedSNUCA {
		llc = "shared"
	}
	intraName := "random"
	if intra == core.IntraRoundRobin {
		intraName = "roundrobin"
	}
	return Resolved{
		Mesh:        fmt.Sprintf("%dx%d", cfg.Mesh.Width, cfg.Mesh.Height),
		Regions:     fmt.Sprintf("%dx%d", cfg.Mesh.RegionsX, cfg.Mesh.RegionsY),
		LLC:         llc,
		CMEAccuracy: r.CMEAccuracy,
		Seed:        r.Seed,
		FineMAC:     r.FineMAC,
		Intra:       intraName,
		MCs:         r.MCs,
		Banks:       r.Banks,
	}
}
