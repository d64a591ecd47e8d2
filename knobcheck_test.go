//go:build knobcheck

package pipette

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// The knob check keeps the configs free of dead options: a config
// field that no binary, flag or experiment sets to anything but its default
// was never measured at another value, so it belongs in a constant. It
// type-checks the module's non-test code (the root package, cmd/,
// examples/, internal/ and the benchmark module) from source and resolves
// every field assignment, address-of and composite-literal key. Type-checking
// the standard library from source is slower than a unit test should be, so
// it runs behind a build tag:
//
//	go test -tags knobcheck -run TestKnobs .

// knobStructs are the config structs the check covers: the stack layers',
// the facade's options, the cluster's, the workloads' and the harness's. A
// field whose type is another of them only nests that config; the rest are
// leaf fields, each one independently settable value.
var knobStructs = [][2]string{
	{"pipette/internal/baseline", "StackConfig"},
	{"pipette/internal/core", "Config"},
	{"pipette/internal/ssd", "Config"},
	{"pipette/internal/index", "Config"},
	{"pipette/internal/nand", "Config"},
	{"pipette/internal/kv", "Config"},
	{"pipette/internal/vfs", "Config"},
	{"pipette/internal/hmb", "Config"},
	{"pipette/internal/nvme", "Costs"},
	{"pipette/internal/slab", "Config"},
	{"pipette/internal/ftl", "Config"},
	{"pipette/internal/blockdev", "Config"},
	{"pipette", "Options"},
	{"pipette", "KVOptions"},
	{"pipette/internal/cluster", "Config"},
	{"pipette/internal/cluster", "ShardConfig"},
	{"pipette/internal/cluster", "ReplayOpts"},
	{"pipette/internal/workload", "SyntheticConfig"},
	{"pipette/internal/workload", "YCSBConfig"},
	{"pipette/internal/workload", "TenantConfig"},
	{"pipette/internal/workload", "RecommenderConfig"},
	{"pipette/internal/workload", "SearchEngineConfig"},
	{"pipette/internal/workload", "SocialGraphConfig"},
	{"pipette/internal/bench", "RunOpts"},
	{"pipette/internal/bench", "KVOpts"},
	{"pipette/internal/bench", "TelemetryOpts"},
	{"pipette/internal/bench", "Scale"},
	{"pipette/internal/extfs", "CreateOpts"},
}

// defaultCtors build a config's defaults. A field set only inside one of
// them takes no other value.
var defaultCtors = map[string]bool{
	"DefaultConfig":      true,
	"DefaultCosts":       true,
	"DefaultStackConfig": true,
	"setDefaults":        true,
}

// knobAllow lists the leaf fields kept settable although no caller sets
// them to a non-default value, each with its reason.
var knobAllow = map[string]string{
	"nand.Config.Channels":       "geometry: layer tests and the benchmark ledger build small arrays",
	"nand.Config.WaysPerChannel": "geometry: layer tests and the benchmark ledger build small arrays",
	"nand.Config.PlanesPerDie":   "geometry: layer tests and the benchmark ledger build small arrays",
	"nand.Config.PagesPerBlock":  "geometry: layer tests and the benchmark ledger build small arrays",
	"nand.Config.PageSize":       "geometry: layer tests and the benchmark ledger build small arrays",
	"ftl.Config.OverprovisionPct": "benchmark/ledger_test.go calls ftl.DefaultConfig; waits for " +
		"ROADMAP item 2's benchmark change",
	"ftl.Config.GCFreeBlockLow": "benchmark/ledger_test.go calls ftl.DefaultConfig; waits for " +
		"ROADMAP item 2's benchmark change",
	"blockdev.Config.PerRequestOverhead": "benchmark/ledger_test.go calls blockdev.DefaultConfig; " +
		"waits for ROADMAP item 2's benchmark change",
	"blockdev.Config.MaxPagesPerCommand": "benchmark/ledger_test.go calls blockdev.DefaultConfig; " +
		"waits for ROADMAP item 2's benchmark change",
	"extfs.CreateOpts.ExtentPages": "only the extfs fragmentation and rollback tests set it, to " +
		"build files of many small extents",
	"pipette.Options.DisableFineCache": "public facade option (Pipette w/o cache); pipette-sim now " +
		"builds baseline.NewPipetteNoCache, and benchmark/ledger_test.go and bench_test.go set it; " +
		"waits for ROADMAP item 2's benchmark change",
}

func TestKnobs(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newModLoader(root)
	l.loadAll(t)

	// Every leaf field of the covered structs, by object.
	names := map[*types.Var]string{}
	nested := 0
	covered := map[types.Type]bool{}
	for _, s := range knobStructs {
		p := l.pkgs[s[0]]
		if p == nil {
			t.Fatalf("package %s not loaded", s[0])
		}
		covered[p.Scope().Lookup(s[1]).Type()] = true
	}
	for _, s := range knobStructs {
		p := l.pkgs[s[0]]
		st := p.Scope().Lookup(s[1]).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if covered[f.Type()] {
				nested++
				continue
			}
			names[f] = fmt.Sprintf("%s.%s.%s", p.Name(), s[1], f.Name())
		}
	}

	var setters []knobSetter
	for _, ck := range l.checked {
		setters = append(setters, ck.setters(names)...)
	}
	// A write outside the default constructors makes a field live unless
	// it writes the default back. Inside them, a write that passes a
	// constructor argument through is live, and one derived from other
	// covered fields (kv's setDefaults fills index.Config from kv.Config)
	// is live when one of its sources is.
	defaults := map[*types.Var][]constant.Value{}
	for _, s := range setters {
		if s.ctor && s.val != nil {
			defaults[s.field] = append(defaults[s.field], s.val)
		}
	}
	live := map[*types.Var]bool{}
	for _, s := range setters {
		if (!s.ctor && !isDefault(s.val, defaults[s.field])) || s.arg {
			live[s.field] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range setters {
			for _, src := range s.from {
				if s.ctor && live[src] && !live[s.field] {
					live[s.field], changed = true, true
				}
			}
		}
	}

	var dead []string
	for f, name := range names {
		_, allowed := knobAllow[name]
		switch {
		case live[f] && allowed:
			t.Errorf("%s is allowlisted but a caller sets it: drop it from knobAllow", name)
		case !live[f] && !allowed:
			dead = append(dead, name)
		}
	}
	for name := range knobAllow {
		found := false
		for _, n := range names {
			found = found || n == name
		}
		if !found {
			t.Errorf("knobAllow names %s, which is not a leaf field of a covered struct", name)
		}
	}
	sort.Strings(dead)
	t.Logf("%d leaf fields (%d allowlisted) and %d nested configs in %d structs",
		len(names), len(knobAllow), nested, len(knobStructs))
	for _, name := range dead {
		t.Errorf("%s: no caller outside a default constructor sets it to a non-default value; make it a constant", name)
	}
}

// isDefault reports whether v is a constant equal to one of the field's
// default values.
func isDefault(v constant.Value, defaults []constant.Value) bool {
	for _, d := range defaults {
		if v != nil && constant.Compare(v, token.EQL, d) {
			return true
		}
	}
	return false
}

// knobSetter is one place that writes a covered field, at pos. val is the
// constant written, or nil when the value is not a constant (or the field's
// address escapes). ctor marks a write inside a default constructor; arg
// marks such a write that passes one of the constructor's arguments through,
// and from lists the other covered fields its value reads.
type knobSetter struct {
	field *types.Var
	pos   token.Pos
	val   constant.Value
	ctor  bool
	arg   bool
	from  []*types.Var
}

// setters lists the places p writes a covered field.
func (p *modPkg) setters(names map[*types.Var]string) []knobSetter {
	var out []knobSetter
	field := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		s := p.info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return nil
		}
		if v := s.Obj().(*types.Var); names[v] != "" {
			return v
		}
		return nil
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			var inCtor bool
			params := map[types.Object]bool{}
			if fd, ok := decl.(*ast.FuncDecl); ok && defaultCtors[fd.Name.Name] {
				inCtor = true
				for _, fl := range fd.Type.Params.List {
					for _, id := range fl.Names {
						params[p.info.Defs[id]] = true
					}
				}
			}
			add := func(v *types.Var, at ast.Node, rhs ast.Expr) {
				if v == nil {
					return
				}
				s := knobSetter{field: v, pos: at.Pos(), ctor: inCtor}
				if rhs != nil {
					s.val = p.info.Types[rhs].Value
					ast.Inspect(rhs, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.Ident:
							s.arg = s.arg || params[p.info.Uses[n]]
						case *ast.SelectorExpr:
							if src := field(n); src != nil && src != v {
								s.from = append(s.from, src)
							}
						}
						return true
					})
				}
				out = append(out, s)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var rhs ast.Expr
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							rhs = n.Rhs[i]
						}
						add(field(lhs), lhs, rhs)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						add(field(n.X), n, nil)
					}
				case *ast.CompositeLit:
					st, ok := typeOf(p.info, n).(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := p.info.Uses[id].(*types.Var); ok && names[v] != "" {
									add(v, kv, kv.Value)
								}
							}
							continue
						}
						if v := st.Field(i); names[v] != "" {
							add(v, el, el)
						}
					}
				}
				return true
			})
		}
	}
	return out
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	t := info.Types[e].Type
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying()
}
