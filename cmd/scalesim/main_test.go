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
	if err := json.Unmarshal(m["budgets"], &b); err != nil || b["max_allocs_per_admission"] != 60 {
		t.Errorf("budgets not rewritten from the lane table: %v (%v)", b, err)
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

// TestPrevToleratesMissingSections: an old baseline file without the lane's
// section is a tagged skip, never an error.
func TestPrevToleratesMissingSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"baseline": {"decisions_per_sec": 100}, "classic": {"decisions_per_sec": 900}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	d := diffPrev(path, "classic")
	if d == nil || len(d.Compared) != 1 || d.Compared[0] != "classic" || len(d.SkippedSections) != 0 {
		t.Errorf("diff = %+v, want classic compared", d)
	}
	d = diffPrev(path, "gateway")
	if d == nil || len(d.SkippedSections) != 1 || d.SkippedSections[0] != "gateway" || len(d.Compared) != 0 {
		t.Errorf("diff = %+v, want gateway skipped (old baselines predate the section)", d)
	}

	// A missing or malformed prev file degrades to no baseline, no error.
	if d := diffPrev(filepath.Join(t.TempDir(), "absent.json"), "classic"); d != nil {
		t.Error("missing prev file did not degrade gracefully")
	}
	if d := diffPrev("", "classic"); d != nil {
		t.Error("unset -prev produced a diff")
	}
}

func TestParseShardCountsNamesItsFlag(t *testing.T) {
	if got, err := parseShardCounts("1, 4,8"); err != nil || len(got) != 3 || got[1] != 4 {
		t.Errorf("parse = %v, %v", got, err)
	}
	_, err := parseShardCounts("1,x")
	if err == nil || err.Error() != `bad -smp-shard-counts entry "x"` {
		t.Errorf("err = %v, want it to name -smp-shard-counts", err)
	}
}
