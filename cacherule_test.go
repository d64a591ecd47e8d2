//go:build knobcheck

package pipette

import (
	"go/types"
	"path/filepath"
	"testing"
)

// The cache-rule check keeps §3.2.4's memory budget in one place: every
// stack sizes its page cache, fine-cache arena, overflow bound and
// page-cache floor through baseline.StackConfig.SetCaches, so a change to
// the rule is a change to one function. It fails on any other non-test
// write of the four fields, outside the benchmark module (which keeps a
// frozen copy of the rule). It shares the knob check's loader and its walk
// of field writes, so it sits behind the same build tag:
//
//	go test -tags knobcheck -run TestCacheRule .

// cacheFields are the four fields the rule sets.
var cacheFields = [][3]string{
	{"pipette/internal/vfs", "Config", "PageCachePages"},
	{"pipette/internal/hmb", "Config", "DataBytes"},
	{"pipette/internal/core", "Config", "OverflowMaxBytes"},
	{"pipette/internal/core", "Config", "PageCacheFloorPages"},
}

// cacheRuleAllow lists the writes allowed besides the rule itself and each
// field's own default constructor, by file and field, each with its reason.
var cacheRuleAllow = map[string]string{
	"internal/bench/ablation.go core.Config.OverflowMaxBytes": "the no-migration variant " +
		"removes the overflow region, the mechanism it ablates",
}

func TestCacheRule(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	l := newModLoader(root)
	l.loadAll(t)

	names := map[*types.Var]string{}
	home := map[*types.Var]string{} // the package that declares the field
	for _, f := range cacheFields {
		p := l.pkgs[f[0]]
		if p == nil {
			t.Fatalf("package %s not loaded", f[0])
		}
		st := p.Scope().Lookup(f[1]).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if v := st.Field(i); v.Name() == f[2] {
				names[v] = p.Name() + "." + f[1] + "." + f[2]
				home[v] = f[0]
			}
		}
	}
	if len(names) != len(cacheFields) {
		t.Fatalf("found %d of the %d cache fields", len(names), len(cacheFields))
	}

	const rule = "pipette/internal/baseline"
	inRule := map[*types.Var]bool{}
	used := map[string]bool{}
	for _, ck := range l.checked {
		if ck.path == "pipette/benchmark" {
			continue
		}
		for _, s := range ck.setters(names) {
			switch {
			case ck.path == rule:
				inRule[s.field] = true
				continue
			case s.ctor && ck.path == home[s.field]:
				continue // the field's default
			}
			pos := l.fset.Position(s.pos)
			file, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			file = filepath.ToSlash(file)
			key := file + " " + names[s.field]
			if _, ok := cacheRuleAllow[key]; ok {
				used[key] = true
				continue
			}
			t.Errorf("%s:%d writes %s: size the caches with baseline.StackConfig.SetCaches",
				file, pos.Line, names[s.field])
		}
	}
	for v, name := range names {
		if !inRule[v] {
			t.Errorf("%s: the rule in %s does not set it", name, rule)
		}
	}
	for key := range cacheRuleAllow {
		if !used[key] {
			t.Errorf("cacheRuleAllow names %q, which no longer writes the field", key)
		}
	}
}
