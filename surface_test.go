package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
	"internal/trace.ProductionConfig.Generate":     "paper suite: draws the production trace Table 1 summarises",
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
	"internal/agent.Agent.MasterEpoch":     "probe: the highest master epoch an agent has seen (invariant and scale tests)",
	"internal/appmaster.AM.MasterEpoch":    "probe: the highest master epoch an application master has seen (appmaster and invariant tests)",
	"internal/lockservice.Service.Release": "probe: give a lock up at once (lockservice and master split-brain tests)",
	"internal/master.Scheduler.Held":       "probe: containers an app holds for a unit (core and master tests)",
	"internal/obs.Dist.Count":              "probe: a distribution's sample count (obs and scale tests)",
	"internal/obs.Store.Get":               "probe: a series' cell in the open row (master and obs tests)",
	"internal/topology.Topology.Racks":     "probe: the sorted rack names (master and topology tests)",
	"internal/transport.Net.Registered":    "probe: whether a name has a live handler (appmaster and transport tests)",
}

// TestExportedSurfaceHasCallers keeps the exported surface to what shipped
// code uses: every exported top-level function or method in non-test Go
// outside bench/ must be referenced by some other non-test Go file or
// declaration (bench/, cmd/ and examples/ included), or be named in
// surfaceAllowlist. An export only tests read belongs in its package's
// export_test.go; one nothing reads is deleted.
//
// The scan is type-checked: a use is an identifier the type checker resolves
// to the declaration itself, so a selector that names a field or another
// type's method of the same name is not one. A method also counts as used
// when a used interface method of the same name has its type among the
// interface's implementations (a call through an interface reaches it), and
// String and Error when they make their type a fmt.Stringer or an error,
// which the standard library calls.
func TestExportedSurfaceHasCallers(t *testing.T) {
	declared := map[string]bool{}
	unused, err := uncalledExports(".", func(key string) { declared[key] = true })
	if err != nil {
		t.Fatal(err)
	}
	uncalled := map[string]bool{}
	for _, k := range unused {
		uncalled[k] = true
		if _, allowed := surfaceAllowlist[k]; !allowed {
			t.Errorf("%s is exported but no non-test code references it: delete it, move it into its package's export_test.go, or allowlist it with a reason", k)
		}
	}
	var stale []string
	for k, why := range surfaceAllowlist {
		switch {
		case !declared[k]:
			t.Errorf("allowlist entry %s names no exported declaration", k)
		case !uncalled[k]:
			stale = append(stale, k)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("allowlist entry %s has no reason", k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("allowlist entry %s has a caller in non-test code now: drop the entry", k)
	}
}

// TestSurfaceScanResolvesNames: the scan flags an uncalled method whose name
// a field of another type shares, and an uncalled method whose name another
// type's called method shares; the name-matching scan it replaced took both
// selectors for uses (a test-only Scheduler.Down hid behind a field Down).
// Methods reached only through an interface, and String, are used.
func TestSurfaceScanResolvesNames(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"a/a.go": `package a

import "fmt"

type Machine struct{ Down bool }

type Scheduler struct{}

func (Scheduler) Down() bool { return false }

func (Scheduler) Up() bool { return true }

type Flag struct{}

func (Flag) Up() bool { return true }

type State int

func (s State) String() string { return "state" }

type Greeter interface{ Greet() string }

type English struct{}

func (English) Greet() string { return "hello" }

func Hello(g Greeter) string { return g.Greet() }

func Report(m Machine, f Flag) string { return fmt.Sprint(m.Down, f.Up(), State(0)) }
`,
		"cmd/c/main.go": `package main

import "repro/a"

func main() { println(a.Report(a.Machine{}, a.Flag{}), a.Hello(a.English{})) }
`,
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unused, err := uncalledExports(root, func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.Scheduler.Down", "a.Scheduler.Up"}; !slices.Equal(unused, want) {
		t.Fatalf("uncalled exports %v, want %v", unused, want)
	}
}

// uncalledExports type-checks every package under root — the module "repro"
// there, bench/ included as "repro/bench" — and returns, sorted, the key of
// every exported top-level function or method outside bench/ that no non-test
// code uses. declare sees the key of every such declaration. A key is
// "dir.Name" for a function and "dir.Type.Name" for a method, dir being the
// package's directory relative to root.
func uncalledExports(root string, declare func(string)) ([]string, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // package directory -> its non-test files
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Every package is checked once, into one Info, by an importer that
	// checks a repository package from its parsed files at its first import
	// and reads the standard library from source.
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	imp := &repoImporter{fset: fset, files: files, info: info, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}}
	dirs := make([]string, 0, len(files))
	for dir := range files {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := imp.check(dir); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	var ifaceMethods []*types.Func // used methods of interfaces
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		used[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	stringer, err := imp.std.Import("fmt")
	if err != nil {
		return nil, err
	}
	implicit := []*types.Interface{
		stringer.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
	}
	implements := func(recv types.Type, iface *types.Interface) bool {
		return types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)
	}

	var unused []string
	for _, dir := range dirs {
		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			continue
		}
		for _, f := range files[dir] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				key := dir + "." + fd.Name.Name
				var recv types.Type
				if fd.Recv != nil {
					recv = fn.Type().(*types.Signature).Recv().Type()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					named, ok := recv.(*types.Named)
					if !ok || !named.Obj().Exported() {
						continue
					}
					key = dir + "." + named.Obj().Name() + "." + fd.Name.Name
				}
				declare(key)
				isUsed := used[fn]
				for _, im := range ifaceMethods {
					if isUsed || recv == nil {
						break
					}
					isUsed = im.Name() == fn.Name() && implements(recv, im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface))
				}
				for _, iface := range implicit {
					if isUsed || recv == nil {
						break
					}
					isUsed = iface.Method(0).Name() == fn.Name() && implements(recv, iface)
				}
				if !isUsed {
					unused = append(unused, key)
				}
			}
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// repoImporter type-checks the repository's packages on demand: import path
// "repro" is the directory ".", "repro/x" is "x" (bench/'s module path is
// "repro/bench", so its packages map the same way).
type repoImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package
}

func (r *repoImporter) Import(path string) (*types.Package, error) {
	if path == "repro" {
		return r.check(".")
	}
	if dir, ok := strings.CutPrefix(path, "repro/"); ok {
		return r.check(dir)
	}
	return r.std.Import(path)
}

func (r *repoImporter) check(dir string) (*types.Package, error) {
	if p, ok := r.pkgs[dir]; ok {
		return p, nil
	}
	path := "repro"
	if dir != "." {
		path += "/" + dir
	}
	conf := types.Config{Importer: r}
	p, err := conf.Check(path, r.fset, r.files[dir], r.info)
	if err != nil {
		return nil, err
	}
	r.pkgs[dir] = p
	return p, nil
}
