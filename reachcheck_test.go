//go:build reachcheck

package pipette

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reachability check keeps test-only code out: a function that no
// binary reaches is validated by no experiment. It builds every main of the
// module (cmd/ and examples/), the benchmark binary and its test binary, and
// a main that takes every exported function and method of package pipette,
// all without inlining, so every call that survives dead-code elimination
// keeps a symbol. It lists their text symbols with go tool nm and subtracts
// them from the module's non-test function declarations. What is left must
// be in reachAllow. Building the binaries takes longer than a unit test
// should, so it runs behind a build tag:
//
//	go test -tags reachcheck -run TestReachable .
//
// The linker keeps a method whose name and signature match a method called
// through some interface, whatever the interface, so a reached method counts
// only if non-test code names it, or an interface the program calls methods
// through holds it (see reachTypes).

// reachAllow lists the functions kept although only tests reach them, each
// with its reason. An entry is an oracle, an invariant check or a point
// through which tests observe state; a counter's entry names a test that
// reads it.
var reachAllow = map[string]string{
	// Invariant checks and oracles.
	"pipette/internal/extfs.(*Inode).CheckExtents":       "invariant check: sorted, gapless, disjoint extents cover the file",
	"pipette/internal/ftl.(*FTL).CheckInvariants":        "invariant check: l2p and p2l are inverses and valid counts agree",
	"pipette/internal/slab.(*Allocator).CheckInvariants": "invariant check: each slab owned once, class lists match the slab counts",
	"pipette/internal/telemetry.(*StageAccount).Gaps":    "invariant check: stage segments partition each request",
	"pipette/internal/nand.ExpectedContent":              "oracle: the bytes a preloaded page must read back",
	"pipette/internal/nand.patternSource.word":           "oracle: the scalar pattern word the fill loops must match",
	"pipette/internal/nand.Config.Decompose":             "oracle: inverts PPAOf in TestPPARoundTrip",

	// Per-layer counters the hot path keeps and tests assert on.
	"pipette/internal/blockdev.(*Layer).Stats": "counters: TestReadPagesMergedCommand asserts ReadCommands == 1",
	"pipette/internal/ftl.(*FTL).Stats":        "counters: TestGCReclaimsSpace reads GCRuns and BlocksErased",
	"pipette/internal/nand.(*Array).Stats":     "counters: TestStatsAccumulate reads reads, programs and erases",
	"pipette/internal/nvme.(*Driver).Stats":    "counters: TestDriverAssignsIDs reads the submitted/completed counts",
	"pipette/internal/ssd.(*Controller).Stats": "counters: TestSmartCounters reads the command and byte counters",

	// Points through which tests observe a layer's state.
	"pipette/internal/bitset.Set.Len":                        "observation: TestSetClearGetCount reads the capacity",
	"pipette/internal/core.(*Pipette).Allocator":             "observation: TestMaintenanceReassignment inspects slab classes",
	"pipette/internal/fault.(*Injector).Injected":            "observation: TestInjectorCountCap counts fired faults per site",
	"pipette/internal/fault.Profile.Rule":                    "observation: TestParseProfile reads each parsed rule",
	"pipette/internal/ftl.(*FTL).Array":                      "observation: TestOverwriteChurnReadsBack peeks flash behind the FTL",
	"pipette/internal/hmb.(*InfoRing).Head":                  "observation: TestInfoRingProtocol follows the ring's head",
	"pipette/internal/hmb.(*Region).DataSize":                "observation: TestDataSize reads the Data Area size",
	"pipette/internal/hmb.(*Region).InTempArea":              "observation: TestAllocTempRotation checks Temp Area offsets",
	"pipette/internal/metrics.(*Histogram).Min":              "observation: TestHistogramBasics reads the smallest sample",
	"pipette/internal/nand.(*Array).ContentPages":            "observation: TestDiscardedPageUnreadable counts materialized pages",
	"pipette/internal/nand.Config.ChannelOf":                 "observation: TestPPARoundTrip checks it against Decompose",
	"pipette/internal/nvme.(*Driver).Depth":                  "observation: TestNewStackHonoursQueueGeometry reads the usable ring depth",
	"pipette/internal/nvme.(*Driver).Pairs":                  "observation: TestNewStackHonoursQueueGeometry reads the pair count",
	"pipette/internal/pagecache.(*Cache).DirtyCount":         "observation: TestFlushDirty checks no dirty page remains",
	"pipette/internal/pagecache.(*Cache).Len":                "observation: TestSlotTableCacheMatchesMapModel compares residency",
	"pipette/internal/pagecache.(*Readahead).Window":         "observation: TestReadaheadSequentialGrows reads the window",
	"pipette/internal/resource.(*Timeline).Ops":              "observation: TestTimelineAccumulates counts busy intervals",
	"pipette/internal/sim.(*EventQueue).Len":                 "observation: TestEventQueueOrdersByTime checks the queue drains",
	"pipette/internal/slab.(*Allocator).ItemSize":            "observation: TestRandomOpsProperty reads each class's item size",
	"pipette/internal/slab.(*Allocator).LiveItems":           "observation: TestLRUOrderAndEvict counts a class's live items",
	"pipette/internal/ssd.(*Controller).Array":               "observation: TestBlockReadDiscardIsTimingNeutral reads NAND counters",
	"pipette/internal/ssd.(*Controller).BufferedPages":       "observation: TestFlushDrainsBuffer checks the write buffer empties",
	"pipette/internal/telemetry.(*FlightRecorder).Len":       "observation: TestFlightRecorderRing checks the ring's fill",
	"pipette/internal/telemetry.(*StageAccount).SetOnFinish": "observation: TestStageAccountOnFinishConservation checks each finished request",
	"pipette/internal/telemetry.(*TailRecorder).Observed":    "observation: TestTailRecorderMatchesSort counts observed requests",
	"pipette/internal/trace.(*Replayer).FileSize":            "observation: TestReplayer checks the workload.Generator metadata",
	"pipette/internal/trace.(*Replayer).Name":                "observation: TestReplayer checks the workload.Generator metadata",
	"pipette/internal/trace.(*Writer).Count":                 "observation: TestRoundTrip counts appended records",
	"pipette/internal/workload.(*Recommender).TableVectors":  "observation: TestRecommenderLayout reads the table sizes",
	"pipette/internal/workload.(*SearchEngine).PostingBytes": "observation: TestSearchEngineLayout reads the posting lists",
	"pipette/internal/workload.(*SocialGraph).Degree":        "observation: TestSocialGraphDegreesPowerLaw reads node degrees",
	"pipette/internal/workload.(*YCSB).Records":              "observation: TestYCSBInsertsGrowKeyspace reads the keyspace size",
}

func TestReachable(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newModLoader(root)
	// The benchmark's ledger runs from its test binary, a root.
	l.testsOf = "pipette/benchmark"
	l.loadAll(t)
	decls := reachDecls(l)
	reached := reachBuild(t, root, l)
	// An assembly function's symbol carries the .abi0 suffix of its ABI.
	for key, d := range decls {
		if d.asm && reached[key+".abi0"] {
			reached[key] = true
		}
	}

	// Each function only tests reach, with the reason it counts so.
	dead := map[string]string{}
	for key := range decls {
		if !reached[key] {
			dead[key] = "no binary reaches it"
		}
	}
	blind := reachTypes(l, decls, reached)
	for _, key := range blind {
		dead[key] = "no non-test code names it, and no interface the program calls holds it"
	}
	keys, lines := make([]string, 0, len(dead)), 0
	for key := range dead {
		keys = append(keys, key)
		lines += decls[key].lines
	}
	sort.Strings(keys)
	t.Logf("%d non-test functions; %d (%d lines) reached only from tests, %d of them kept by "+
		"the linker for an interface call they cannot receive; %d allowlisted",
		len(decls), len(dead), lines, len(blind), len(reachAllow))

	for _, key := range keys {
		if _, ok := reachAllow[key]; !ok {
			t.Errorf("%s (%s): %s; delete it, or allowlist it if it is an oracle, "+
				"an invariant check or a test observation point", key, decls[key].pos, dead[key])
		}
	}
	for key := range reachAllow {
		switch {
		case decls[key] == nil:
			t.Errorf("reachAllow names %s, which is not a non-test function of the module", key)
		case dead[key] == "":
			t.Errorf("reachAllow names %s, which a binary reaches: drop it from reachAllow", key)
		}
	}
}

// reachDecl is one non-test function declaration of the module.
type reachDecl struct {
	pos   string
	lines int
	fn    *types.Func
	asm   bool // no body: implemented in assembly
}

// reachDecls lists the module's non-test function declarations (the
// benchmark module, a module of its own, is a root, not a subject) by
// symbol name: "pkg.F", "pkg.T.M" or "pkg.(*T).M", with the import path as
// pkg and no type parameters.
func reachDecls(l *modLoader) map[string]*reachDecl {
	decls := map[string]*reachDecl{}
	for _, p := range l.checked {
		if strings.HasPrefix(p.path, "pipette/benchmark") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				start, end := l.fset.Position(fd.Pos()), l.fset.Position(fd.End())
				rel, _ := filepath.Rel(l.root, start.Filename)
				decls[p.path+"."+reachName(fd)] = &reachDecl{
					pos:   fmt.Sprintf("%s:%d", rel, start.Line),
					lines: end.Line - start.Line + 1,
					fn:    p.info.Defs[fd.Name].(*types.Func),
					asm:   fd.Body == nil,
				}
			}
		}
	}
	return decls
}

// reachName is a declaration's symbol name within its package: F, T.M or
// (*T).M.
func reachName(fd *ast.FuncDecl) string {
	recv, ptr := reachRecv(fd)
	switch {
	case recv == "":
		return fd.Name.Name
	case ptr:
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// reachRecv names a method's receiver type, without type parameters, and
// reports whether it is a pointer; recv is empty for a function.
func reachRecv(fd *ast.FuncDecl) (recv string, ptr bool) {
	if fd.Recv == nil {
		return "", false
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return typ.(*ast.Ident).Name, ptr
}

// reachBuild builds the root binaries into a temporary directory and
// returns the text symbols they hold, named as reachDecls names them.
func reachBuild(t *testing.T, root string, l *modLoader) map[string]bool {
	bin := t.TempDir()
	gen := filepath.Join(t.TempDir(), "roots")
	if err := os.MkdirAll(gen, 0o755); err != nil {
		t.Fatal(err)
	}
	goMod := fmt.Sprintf("module roots\n\ngo 1.22\n\nrequire pipette v0.0.0\n\nreplace pipette => %s\n", root)
	if err := os.WriteFile(filepath.Join(gen, "go.mod"), []byte(goMod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(gen, "main.go"), reachRootsMain(t, l), 0o644); err != nil {
		t.Fatal(err)
	}
	const noInline = "-gcflags=all=-l"
	for _, args := range [][]string{
		{"build", noInline, "-o", bin + "/", "./cmd/...", "./examples/..."},
		{"-C", "benchmark", "build", noInline, "-o", filepath.Join(bin, "benchmark"), "."},
		{"-C", "benchmark", "test", "-c", noInline, "-o", filepath.Join(bin, "benchmark.test"), "."},
		{"-C", gen, "build", noInline, "-o", filepath.Join(bin, "roots"), "."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}

	// The main package a binary was built from, to name its main.* symbols.
	mains := map[string]string{}
	for _, dir := range []string{"cmd", "examples"} {
		ents, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() {
				mains[e.Name()] = "pipette/" + dir + "/" + e.Name()
			}
		}
	}
	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			f := strings.SplitN(strings.TrimLeft(sc.Text(), " "), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := reachStripTypeArgs(f[2])
			switch {
			case strings.HasPrefix(name, "main."):
				if pkg := mains[b.Name()]; pkg != "" {
					reached[pkg+strings.TrimPrefix(name, "main")] = true
				}
			case strings.HasPrefix(name, "pipette."), strings.HasPrefix(name, "pipette/"):
				reached[name] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return reached
}

// reachStripTypeArgs drops the bracketed type arguments from a symbol name:
// "pkg.(*T[go.shape.int]).M" is "pkg.(*T).M".
func reachStripTypeArgs(name string) string {
	if !strings.Contains(name, "[") {
		return name
	}
	var b strings.Builder
	depth := 0
	for _, r := range name {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// reachRootsMain writes a main that takes every exported function and
// method of package pipette as a value, so the linker keeps the facade
// whole: the facade is the library's surface even where no binary calls it.
func reachRootsMain(t *testing.T, l *modLoader) []byte {
	var b bytes.Buffer
	b.WriteString("package main\n\nimport \"pipette\"\n\nvar roots = []any{\n")
	for _, p := range l.checked {
		if p.path != "pipette" {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				if fd.Type.TypeParams != nil {
					t.Fatalf("%s is generic: the roots main cannot take it as a value", fd.Name.Name)
				}
				switch recv, ptr := reachRecv(fd); {
				case recv == "":
					fmt.Fprintf(&b, "\tpipette.%s,\n", fd.Name.Name)
				case !ast.IsExported(recv):
				case ptr:
					fmt.Fprintf(&b, "\t(*pipette.%s).%s,\n", recv, fd.Name.Name)
				default:
					fmt.Fprintf(&b, "\tpipette.%s.%s,\n", recv, fd.Name.Name)
				}
			}
		}
	}
	b.WriteString("}\n\nfunc main() { println(len(roots)) }\n")
	return b.Bytes()
}

// reachDynamic are the methods the standard library finds by a type
// assertion on any value it is handed (fmt, errors, encoding/json), so no
// interface type in the module's code shows the call.
var reachDynamic = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// reachTypes returns the reached methods that no call can receive. The
// linker keeps a method of a type that is converted to an interface when
// any interface call in the program has its name and signature, so a
// method named like a popular one (Len, Reset, Close) survives with no
// caller. A method is callable if non-test code names it (a call, a method
// value or a method expression), if its name is in reachDynamic, or if its
// type implements an interface the program calls it through: one whose
// method non-test code calls, or an interface parameter or field of the
// standard library that non-test code passes a value to.
func reachTypes(l *modLoader, decls map[string]*reachDecl, reached map[string]bool) []string {
	named := map[*types.Func]bool{}
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	addIface := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !seen[typ] {
			seen[typ] = true
			ifaces = append(ifaces, it)
		}
	}
	external := func(obj types.Object) bool {
		return obj.Pkg() != nil && obj.Pkg().Path() != "pipette" && !strings.HasPrefix(obj.Pkg().Path(), "pipette/")
	}
	var defined []*types.Named
	for _, p := range l.checked {
		for id, obj := range p.info.Defs {
			switch obj := obj.(type) {
			case *types.TypeName:
				if n, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					defined = append(defined, n)
				}
			case *types.Func:
				// The roots main names every exported method of the facade.
				if p.path == "pipette" && id.IsExported() {
					named[obj] = true
				}
			}
		}
		for _, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			named[fn.Origin()] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				addIface(recv.Type())
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					var id *ast.Ident
					switch fun := ast.Unparen(n.Fun).(type) {
					case *ast.Ident:
						id = fun
					case *ast.SelectorExpr:
						id = fun.Sel
					}
					if id == nil || p.info.Uses[id] == nil || !external(p.info.Uses[id]) {
						break
					}
					sig, ok := p.info.Uses[id].Type().(*types.Signature)
					if !ok {
						break
					}
					for i := 0; i < sig.Params().Len(); i++ {
						typ := sig.Params().At(i).Type()
						if s, ok := typ.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
							typ = s.Elem()
						}
						addIface(typ)
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() && external(v) {
							addIface(v.Type())
						}
					}
				}
				return true
			})
		}
	}

	// Every method an interface call can land on, through promotion too.
	viaIface := map[*types.Func]bool{}
	for _, n := range defined {
		if n.TypeParams().Len() > 0 {
			// A generic type is taken as implementing every interface
			// whose method names it has.
			for i := 0; i < n.NumMethods(); i++ {
				for _, it := range ifaces {
					if obj, _, _ := types.LookupFieldOrMethod(it, false, n.Method(i).Pkg(), n.Method(i).Name()); obj != nil {
						viaIface[n.Method(i)] = true
					}
				}
			}
			continue
		}
		for _, typ := range []types.Type{n, types.NewPointer(n)} {
			for _, it := range ifaces {
				if !types.Implements(typ, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(typ, false, m.Pkg(), m.Name()); obj != nil {
						viaIface[obj.(*types.Func).Origin()] = true
					}
				}
			}
		}
	}

	var out []string
	for key, d := range decls {
		recv := d.fn.Type().(*types.Signature).Recv()
		if recv == nil || !reached[key] || named[d.fn] || reachDynamic[d.fn.Name()] || viaIface[d.fn] {
			continue
		}
		out = append(out, key)
	}
	return out
}
