package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported functions and methods that no non-test
// code calls and that stay exported anyway, each with its reason. A key is
// "dir.Name" for a function and "dir.Type.Name" for a method, dir being the
// package's directory relative to the repository root.
var surfaceAllowlist = map[string]string{
	// Fault entry points a generated fault schedule will drive.
	"internal/agent.Agent.CrashDaemon":       "fault entry point: the agent daemon dies, its workers run on",
	"internal/agent.Agent.RestartDaemon":     "fault entry point: the agent daemon comes back and adopts its workers",
	"internal/agent.Agent.SetHealth":         "fault entry point: a machine's health score drops or recovers",
	"internal/transport.Net.SetLinkRule":     "fault entry point: drop, duplicate or delay one directed link",
	"internal/transport.Net.ClearConditions": "fault entry point: heal every scheduled network condition",
	"internal/transport.Net.IsDown":          "fault entry point: read whether an endpoint is unreachable",
	"internal/pangu.FS.LoseMachine":          "fault entry point: a machine's disks are lost for good",

	// The paper's evaluation suite, which the root bench_test.go runs.
	"internal/experiments.RunSynthetic":            "paper suite: Figures 9-10 and Table 2",
	"internal/experiments.DefaultSyntheticOptions": "paper suite: the synthetic workload's default size",
	"internal/experiments.RunFaultMatrix":          "paper suite: the fault-injection experiments",
	"internal/experiments.DefaultFaultOptions":     "paper suite: the fault matrix's default size",
	"internal/experiments.MeasureGraySort":         "paper suite: Table 4 and PetaSort",
	"internal/trace.Collect":                       "paper suite: the production-trace statistics",
	"internal/trace.DefaultProductionConfig":       "paper suite: the production trace's default shape",
	"internal/baseline.RM.HandleForBench":          "paper suite: the heartbeat-RM baseline of the scheduling ablation",

	// Probes that other packages' tests read, so they cannot move into an
	// export_test.go.
	"internal/transport.Net.Footprint":     "retention probe: endpoint slots (agent, appmaster, core, job, scale tests)",
	"internal/master.Master.Footprint":     "retention probe: the master's per-endpoint tables (scale soak test)",
	"internal/dense.Arena.Carved":          "retention probe: records carved by a store (master's locality-tree fuzz)",
	"internal/job.JobMaster.BackupStats":   "probe: backup instances launched and won (core's job tests)",
	"internal/lockservice.Service.Holder":  "probe: who holds a lock (master's split-brain test)",
	"internal/master.Scheduler.GroupUsage": "probe: a quota group's usage (core's quota tests)",
	"internal/master.Scheduler.Waiting":    "probe: a unit's queued demand (appmaster's full-sync oracle)",
	"internal/protocol.Keep":               "test helper: a value copy of a pooled message, for tests that record messages",
}

// TestExportedSurfaceHasCallers keeps the exported surface to what shipped
// code uses: every exported top-level function or method in non-test Go
// outside bench/ must be referenced by some other non-test Go file or
// declaration (bench/, cmd/ and examples/ included), or be named in
// surfaceAllowlist. An export only tests read belongs in its package's
// export_test.go; one nothing reads is deleted.
//
// The scan is by name, with no type checking: a method counts as used when
// any selector or interface method has its name, a function when its
// package's files name it or any selector does. A name shared with a used
// identifier can therefore hide an unused export, never flag a used one.
func TestExportedSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, dir, name string }
	var decls []decl
	selected := map[string]bool{}        // names used as x.Name or interface methods
	bare := map[string]map[string]bool{} // dir -> names used as a bare identifier
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if bare[dir] == nil {
			bare[dir] = map[string]bool{}
		}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || dir == "bench" || strings.HasPrefix(dir, "bench/") {
				continue
			}
			key := dir + "." + fn.Name.Name
			if fn.Recv != nil {
				recv := recvType(fn.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				key = dir + "." + recv + "." + fn.Name.Name
			}
			decls = append(decls, decl{key: key, dir: dir, name: fn.Name.Name})
		}
		visit := inspector(bare[dir], selected)
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok {
				return visit(n)
			}
			// The declared name is not a use; walk the rest.
			if fn.Recv != nil {
				ast.Inspect(fn.Recv, visit)
			}
			ast.Inspect(fn.Type, visit)
			if fn.Body != nil {
				ast.Inspect(fn.Body, visit)
			}
			return false
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	var unused []string
	var stale []string
	for _, d := range decls {
		declared[d.key] = true
		isMethod := strings.Count(strings.TrimPrefix(d.key, d.dir+"."), ".") == 1
		used := selected[d.name] || !isMethod && bare[d.dir][d.name]
		_, allowed := surfaceAllowlist[d.key]
		switch {
		case !used && !allowed:
			unused = append(unused, d.key)
		case used && allowed:
			stale = append(stale, d.key)
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s is exported but no non-test code references it: delete it, move it into its package's export_test.go, or allowlist it with a reason", k)
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("allowlist entry %s has a caller in non-test code now: drop the entry", k)
	}
	for k, why := range surfaceAllowlist {
		if !declared[k] {
			t.Errorf("allowlist entry %s names no exported declaration", k)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("allowlist entry %s has no reason", k)
		}
	}
}

// inspector records identifier uses: selectors and interface method names
// into selected, every other identifier into bare.
func inspector(bare, selected map[string]bool) func(ast.Node) bool {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			selected[n.Sel.Name] = true
			ast.Inspect(n.X, visit)
			return false
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					selected[name.Name] = true
				}
			}
		case *ast.Ident:
			bare[n.Name] = true
		}
		return true
	}
	return visit
}

// recvType returns the name of a method receiver's type.
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
