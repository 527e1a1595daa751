package cme_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/compiler"
	"locmap/internal/sim"
	"locmap/internal/topology"
)

// updatePins rewrites testdata/cme_pins.json from the current estimator
// and mapper:
//
//	go test ./internal/cme -run TestCMEPins -update-pins
//
// Rewrite it only for an intended change of the estimator's predictions.
var updatePins = flag.Bool("update-pins", false, "rewrite testdata/cme_pins.json")

const cmePinsPath = "testdata/cme_pins.json"

// pinSources are programs in the shapes of perfbench's request family:
// unit-stride and line-stride streams that fit or overflow the capacity
// model, the 2-D stencil followed by streams that reuse its output, and
// the gather, whose irregular nest the estimator walks only to warm the
// model for the nests after it. Two more stress the LRU order: a
// transposed walk that conflicts within sets, and reads at lagging
// offsets that hit deep in a set.
var pinSources = []struct{ name, src string }{
	{"stream-fit", "param N = 4096\narray A[N]\narray B[N]\narray C[N]\nparallel for i = 0..N work 16 {\n  A[i] = B[i] + C[i]\n}\n"},
	{"stream-spill", "param N = 40000\narray A[N]\narray B[N]\narray C[N]\narray D[N]\nparallel for i = 0..N work 8 {\n  A[i] = B[i] + C[i] + D[i]\n}\n"},
	{"stream8-fit", "param N = 8192\narray A[N]\narray B[N]\narray C[N]\n" +
		"parallel for i = 0..1024 work 32 {\n  A[8*i] = B[8*i] + C[8*i]\n}\n" +
		"parallel for i = 0..1024 work 32 {\n  B[8*i] = A[8*i] + C[8*i]\n}\n"},
	{"stream8-spill", "param N = 96000\narray A[N]\narray B[N]\narray C[N]\narray D[N]\nparallel for i = 0..12000 work 4 {\n  A[8*i] = B[8*i] + C[8*i] + D[8*i]\n}\n"},
	{"stencil-fit", "param N = 4096\narray G[N + 16]\narray H[N + 16]\narray A[N]\narray B[N]\n" +
		"parallel for i = 0..64 work 16 {\n  for j = 0..64 {\n    H[64*i + j + 1] = G[64*i + j] + G[64*i + j + 1] + G[64*i + j + 2]\n  }\n}\n" +
		"parallel for i = 0..N work 8 {\n  A[i] = H[i] + B[i]\n}\n" +
		"parallel for i = 0..N work 8 {\n  B[i] = A[i] + H[i + 1]\n}\n"},
	{"stencil-spill", "param N = 25600\narray G[N + 16]\narray H[N + 16]\narray A[N]\narray B[N]\n" +
		"parallel for i = 0..200 work 4 {\n  for j = 0..128 {\n    H[128*i + j + 1] = G[128*i + j] + G[128*i + j + 1] + G[128*i + j + 2]\n  }\n}\n" +
		"parallel for i = 0..N work 16 {\n  A[i] = H[i] + B[i]\n}\n" +
		"parallel for i = 0..N work 16 {\n  B[i] = A[i] + H[i + 1]\n}\n"},
	{"stencil8", "param N = 65536\narray G[N + 16]\narray H[N + 16]\narray A[N]\narray B[N]\n" +
		"parallel for i = 0..32 work 8 {\n  for j = 0..256 {\n    H[2048*i + 8*j + 8] = G[2048*i + 8*j] + G[2048*i + 8*j + 8] + G[2048*i + 8*j + 16]\n  }\n}\n" +
		"parallel for i = 0..8192 work 32 {\n  A[8*i] = H[8*i] + B[8*i]\n}\n" +
		"parallel for i = 0..8192 work 32 {\n  B[8*i] = A[8*i] + H[8*i + 8]\n}\n"},
	{"gather-fit", "param N = 2048\nparam M = 4096\narray A[N]\narray B[N]\narray X[M]\narray IDX[N]\narray OUT[N]\n" +
		"parallel for i = 0..N work 16 {\n  A[i] = B[i]\n}\n" +
		"parallel for i = 0..N work 16 {\n  OUT[i] = X[IDX[i]] + A[i]\n}\n"},
	{"gather8-spill", "param N = 64000\nparam M = 128000\narray A[N]\narray B[N]\narray X[M]\narray IDX[8000]\narray OUT[N]\n" +
		"parallel for i = 0..8000 work 4 {\n  A[8*i] = B[8*i]\n}\n" +
		"parallel for i = 0..8000 work 4 {\n  OUT[8*i] = X[IDX[i]] + A[8*i]\n}\n"},
	{"gather-then-stream", "param N = 16384\nparam M = 32768\narray A[N]\narray B[N]\narray X[M]\narray IDX[N]\narray OUT[N]\n" +
		"parallel for i = 0..N work 16 {\n  A[i] = B[i]\n}\n" +
		"parallel for i = 0..N work 16 {\n  OUT[i] = X[IDX[i]] + A[i]\n}\n" +
		"parallel for i = 0..N work 16 {\n  B[i] = OUT[i] + A[i]\n}\n"},
	{"transpose", "param N = 65536\narray A[N]\narray B[N]\n" +
		"parallel for i = 0..256 work 8 {\n  for j = 0..256 {\n    A[256*i + j] = B[256*j + i]\n  }\n}\n"},
	{"lagged-reuse", "param N = 24576\narray A[N]\narray B[N]\n" +
		"parallel for i = 0..16384 work 8 {\n  A[i] = B[i] + B[i + 2048] + B[i + 8192] + A[i + 4096]\n}\n"},
}

// pinTarget is one machine the sources are compiled for.
type pinTarget struct {
	name string
	cfg  sim.Config
}

func pinTargets(t *testing.T) []pinTarget {
	meshes := []struct {
		name   string
		w, h   int
		rx, ry int
		edge   []topology.Coord
	}{
		{"6x6", 6, 6, 3, 3, []topology.Coord{{X: 0, Y: 2}, {X: 5, Y: 3}, {X: 2, Y: 0}, {X: 3, Y: 5}}},
		{"8x8", 8, 8, 4, 4, []topology.Coord{{X: 0, Y: 3}, {X: 7, Y: 4}, {X: 3, Y: 0}, {X: 4, Y: 7}}},
	}
	var out []pinTarget
	for _, m := range meshes {
		corner, err := topology.New(m.w, m.h, m.rx, m.ry, topology.MCCorners)
		if err != nil {
			t.Fatal(err)
		}
		edge, err := corner.WithMCs(m.edge)
		if err != nil {
			t.Fatal(err)
		}
		for _, org := range []cache.Organization{cache.Private, cache.SharedSNUCA} {
			for _, mc := range []struct {
				name string
				mesh *topology.Mesh
			}{{"corner", corner}, {"edge", edge}} {
				cfg := sim.DefaultConfig()
				cfg.Mesh = mc.mesh
				cfg.LLCOrg = org
				out = append(out, pinTarget{fmt.Sprintf("%s/%v/%s", m.name, org, mc.name), cfg})
			}
		}
	}
	return out
}

// cmePin is one compilation's digest.
type cmePin struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

// planDigest hashes every nest's per-set predictions (the bit patterns
// of MAI, CAI and α, and the weight) and its schedule (region and core
// per set, sets moved, total error bits).
func planDigest(res *compiler.Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putVec := func(v affinity.Vector) {
		put(uint64(len(v)))
		for _, x := range v {
			put(math.Float64bits(x))
		}
	}
	for _, plan := range res.Plans {
		put(uint64(len(plan.Affinities)))
		for _, s := range plan.Affinities {
			putVec(s.MAI)
			putVec(s.CAI)
			put(math.Float64bits(s.Alpha))
			put(uint64(s.Weight))
		}
		a := plan.Assignment
		if a == nil {
			put(math.MaxUint64)
			continue
		}
		put(uint64(len(a.Region)))
		for k := range a.Region {
			put(uint64(a.Region[k]))
			put(uint64(a.Core[k]))
		}
		put(uint64(a.Moved))
		put(math.Float64bits(a.TotalError))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCMEPins pins the compile-time predictions and schedules of the
// sources above on 6x6/3x3 and 8x8/4x4 meshes, private and shared LLC,
// corner and edge MCs, at the per-application default accuracy and at
// 1.0, so a single flipped hit/miss classification anywhere fails it.
// The sweep goldens cover only four paper applications at the Table 4
// defaults.
func TestCMEPins(t *testing.T) {
	var got []cmePin
	for _, tg := range pinTargets(t) {
		for ai, acc := range []float64{0, 1} {
			for si, s := range pinSources {
				opts := compiler.Options{Cfg: tg.cfg, CMEAccuracy: acc}
				opts.Mapper.Seed = int64((si + ai) % 3)
				res, err := compiler.CompileSource(s.src, opts)
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				got = append(got, cmePin{
					Name:   fmt.Sprintf("%s/acc%g/%s", tg.name, acc, s.name),
					SHA256: planDigest(res),
				})
			}
		}
	}

	if *updatePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cmePinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(cmePinsPath)
	if err != nil {
		t.Fatalf("missing pins (run with -update-pins to create): %v", err)
	}
	var want []cmePin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", cmePinsPath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d pins, the test produced %d", cmePinsPath, len(want), len(got))
	}
	for i, g := range got {
		if want[i] != g {
			t.Errorf("%s: plan digest %s, want %s: %s", g.Name, g.SHA256, want[i].Name, want[i].SHA256)
		}
	}
}
