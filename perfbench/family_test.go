package main

import (
	"reflect"
	"testing"

	"locmap/internal/compiler"
	"locmap/internal/lang"
)

// TestFamilyCompiles checks that every generated source parses,
// compiles for its target and validates once index data is bound — one
// full block of every family the workloads draw from.
func TestFamilyCompiles(t *testing.T) {
	for _, fps := range []footprints{planFootprints, simFootprints, optFootprints} {
		for _, s := range Family(7, fps.strata(), fps) {
			_, opts, err := specTarget(s)
			if err != nil {
				t.Fatalf("%s: target: %v", s.Name, err)
			}
			p, err := lang.Parse(s.Source, nil)
			if err != nil {
				t.Fatalf("%s: parse: %v\n%s", s.Name, err, s.Source)
			}
			res, err := compiler.CompileProgram(p, opts)
			if err != nil {
				t.Fatalf("%s: compile: %v\n%s", s.Name, err, s.Source)
			}
			lang.GenerateIndexData(res.Program, 1, 64)
			if err := res.Program.Validate(); err != nil {
				t.Fatalf("%s: validate: %v\n%s", s.Name, err, s.Source)
			}
			if s.Kind == kindGather && !res.NeedsInspector {
				t.Errorf("%s: gather kernel not routed to the inspector", s.Name)
			}
		}
	}
}

// TestFamilyDeterministic checks that a seed always yields the same
// family byte for byte, that another seed yields another family, and
// that each block holds every combination of the strata exactly once.
func TestFamilyDeterministic(t *testing.T) {
	a := Family(3, 3*planFootprints.strata(), planFootprints)
	b := Family(3, 3*planFootprints.strata(), planFootprints)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed produced two different families")
	}
	if reflect.DeepEqual(a, Family(4, len(a), planFootprints)) {
		t.Fatal("two seeds produced the same family")
	}
	for start := 0; start+planFootprints.strata() <= len(a); start += planFootprints.strata() {
		seen := map[int]bool{}
		for _, s := range a[start : start+planFootprints.strata()] {
			if seen[s.Stratum] {
				t.Fatalf("stratum %d twice in the block at %d", s.Stratum, start)
			}
			seen[s.Stratum] = true
		}
	}
}
