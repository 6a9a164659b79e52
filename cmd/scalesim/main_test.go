package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scale"
)

func readSections(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWriteOutMergePreservesSections pins the -merge contract: folding a
// gateway run into an existing BENCH_scale.json must keep the old sections
// and rewrite the budgets from the lane table.
func TestWriteOutMergePreservesSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`{"baseline": {"decisions": 1}, "budgets": {"max_allocs_per_admission": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	res := &scale.Result{Decisions: 42}
	if err := writeOut(path, res, "gateway", true); err != nil {
		t.Fatal(err)
	}
	m := readSections(t, path)
	for _, want := range []string{"baseline", "gateway", "budgets"} {
		if _, ok := m[want]; !ok {
			t.Errorf("merged file lost or lacks section %q", want)
		}
	}
	var b map[string]float64
	if want := scale.Budgets()["max_allocs_per_admission"]; json.Unmarshal(m["budgets"], &b) != nil || want == 0 || b["max_allocs_per_admission"] != want {
		t.Errorf("budgets not rewritten from the lane table: %v, want %v", b, want)
	}

	// Merging into a missing file starts a fresh document.
	fresh := filepath.Join(t.TempDir(), "new.json")
	if err := writeOut(fresh, res, "gateway", true); err != nil {
		t.Fatal(err)
	}
	if _, ok := readSections(t, fresh)["gateway"]; !ok {
		t.Error("merge into missing file lost the run section")
	}

	// Without -merge the payload is the whole document.
	if err := writeOut(fresh, res, "gateway", false); err != nil {
		t.Fatal(err)
	}
	if _, ok := readSections(t, fresh)["decisions"]; !ok {
		t.Error("overwrite did not write the bare result")
	}
}

// TestCheckedInArtifactHoldsOnlyLaneSections: every top-level key of the
// repository's BENCH_scale.json is something `-lane <name> -merge` rewrites —
// a scale.Lanes name or the budgets table. Frozen history lives in
// docs/history/.
func TestCheckedInArtifactHoldsOnlyLaneSections(t *testing.T) {
	for key := range readSections(t, filepath.Join("..", "..", "BENCH_scale.json")) {
		if key != "budgets" && scale.LaneByName(key) == nil {
			t.Errorf("BENCH_scale.json has section %q, which no lane regenerates", key)
		}
	}
}
