package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// decl is one metric BENCHMARK.json declares.
type decl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the end-to-end and per-layer metric lists from the
// checkout's BENCHMARK.json, the one place they are defined.
func declared(root string) (endToEnd, perLayer []decl, err error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, err
	}
	var b struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b.EndToEnd, b.PerLayer, nil
}

// commitID names the code under test: the git commit when the checkout
// is a repository, otherwise a SHA-256 over the Go sources and module
// files, so results from a plain source checkout are still attributable.
func commitID(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", rel)
		io.Copy(h, f)
		f.Close()
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}
