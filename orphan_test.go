package charisma

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// orphanAllowed names the exported identifiers under internal/ that no
// production code reads but that stay on purpose as test oracles or seams,
// each with its reason. A key is "<package path below internal/>" followed
// by ".<Name>" or ".<Type>.<Method>"; a bare package path covers the whole
// package.
var orphanAllowed = map[string]string{
	"analytic":                              "closed forms, kept to become an oracle over the corpus",
	"core.ArenaObs":                         "arena counters, kept until a run report adopts or drops them",
	"run.Sequential":                        "the grid's byte-identity oracle",
	"mac.System.VerifyRegistry":             "registry invariant oracle",
	"channel.NewBank":                       "eager plane, the golden suite's and lazy replay's reference",
	"channel.NewBankWithSpeeds":             "eager mixed-speed plane, the golden suite's and plane tests' reference",
	"channel.Bank.Classes":                  "plane oracle: coefficient classes shared across users",
	"channel.Fading.Gain":                   "golden suite reads the power gain",
	"channel.Fading.ShortTerm":              "golden suite reads the fading component",
	"channel.Fading.LongTerm":               "golden suite reads the shadowing component",
	"channel.Fading.MeasureEstimateDelayed": "golden suite and plane oracle read the delayed CSI estimate",
	"channel.Fading.Params":                 "test seam: per-station speed wiring",
	"grid.DecodeSpec":                       "fuzzed in CI",
	"grid.MemCache.Len":                     "test seam",
	"mac.Station.PendingAtBS":               "test seam",
	"mac.System.NextVoiceDue":               "test seam",
	"traffic.DataSource.OldestBorn":         "test seam",
}

// stdlibMethods are exported method names the standard library calls
// through its own interfaces, so no identifier in this module reads them.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "RoundTrip": true,
}

// TestNoOrphanExports fails for any exported top-level func, method or
// type under internal/ whose name no identifier in the module's non-test
// code reads, perfbench included, unless orphanAllowed names it. Uses
// are matched by name with go/parser alone: a func or type by package and
// name, a method by its name in any selector. A declaration does not read
// itself, and a type is not read by its own methods. Because methods match
// by name alone, an orphan method passes while any selector of the same
// name exists, even one on a standard-library type: rng.Stream.Perm
// passed this way on perfbench's math/rand/v2 Perm call. Field reads are
// the commonest such selector, so a method named like an exported struct
// field of the module is read only by a call of that name.
func TestNoOrphanExports(t *testing.T) {
	type owner struct{ pkg, recv, name string }
	type decl struct {
		owner
		pos token.Position
	}
	var decls []decl
	uses := map[[2]string][]owner{}  // {pkg, name} -> reading contexts
	selUses := map[string][]owner{}  // selector name -> reading contexts
	callUses := map[string][]owner{} // called selector name -> reading contexts
	fields := map[string]bool{}      // exported struct field names

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(p))
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fd := range st.Fields.List {
					for _, name := range fd.Names {
						if name.IsExported() {
							fields[name.Name] = true
						}
					}
				}
			}
			return true
		})
		imports := map[string]string{}
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			name := path.Base(ip)
			if is.Name != nil {
				name = is.Name.Name
			}
			if rel, ok := strings.CutPrefix(ip, "charisma/"); ok {
				imports[name] = rel
			} else if ip == "charisma" {
				imports[name] = "."
			} else {
				imports[name] = "std:" + ip
			}
		}
		for _, dc := range f.Decls {
			var ctx owner
			var inspect func(n ast.Node) bool
			inspect = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); !ok || imports[x.Name] == "" {
							callUses[sel.Sel.Name] = append(callUses[sel.Sel.Name], ctx)
						}
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							k := [2]string{ip, n.Sel.Name}
							uses[k] = append(uses[k], ctx)
							return false
						}
					}
					selUses[n.Sel.Name] = append(selUses[n.Sel.Name], ctx)
					ast.Inspect(n.X, inspect)
					return false
				case *ast.Ident:
					k := [2]string{pkg, n.Name}
					uses[k] = append(uses[k], ctx)
				case *ast.Field: // names declare, only the type reads
					ast.Inspect(n.Type, inspect)
					return false
				case *ast.ValueSpec:
					if n.Type != nil {
						ast.Inspect(n.Type, inspect)
					}
					for _, v := range n.Values {
						ast.Inspect(v, inspect)
					}
					return false
				}
				return true
			}
			switch dc := dc.(type) {
			case *ast.FuncDecl:
				ctx = owner{pkg, "", dc.Name.Name}
				if dc.Recv != nil {
					ctx.recv = recvName(dc.Recv.List[0].Type)
				}
				if ctx.recv == "" || ast.IsExported(ctx.recv) {
					decls = append(decls, decl{ctx, fset.Position(dc.Pos())})
				}
				ast.Inspect(dc.Type, inspect)
				if dc.Body != nil {
					ast.Inspect(dc.Body, inspect)
				}
			case *ast.GenDecl:
				for _, s := range dc.Specs {
					ctx = owner{}
					if ts, ok := s.(*ast.TypeSpec); ok {
						ctx = owner{pkg, ts.Name.Name, ""}
						decls = append(decls, decl{ctx, fset.Position(ts.Pos())})
						if ts.TypeParams != nil {
							ast.Inspect(ts.TypeParams, inspect)
						}
						ast.Inspect(ts.Type, inspect)
						continue
					}
					ast.Inspect(s, inspect)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	read := func(ctxs []owner, self func(owner) bool) bool {
		for _, c := range ctxs {
			if !self(c) {
				return true
			}
		}
		return false
	}
	var orphans []string
	covered := map[string]bool{}
	for _, d := range decls {
		rel, ok := strings.CutPrefix(d.pkg, "internal/")
		if !ok {
			continue
		}
		var key string
		var used bool
		switch {
		case d.name == "": // type
			if !ast.IsExported(d.recv) {
				continue
			}
			key = rel + "." + d.recv
			used = read(uses[[2]string{d.pkg, d.recv}], func(c owner) bool {
				return c.pkg == d.pkg && c.recv == d.recv
			})
		case d.recv == "": // func
			if !ast.IsExported(d.name) {
				continue
			}
			key = rel + "." + d.name
			used = read(uses[[2]string{d.pkg, d.name}], func(c owner) bool { return c == d.owner })
		default: // method
			if !ast.IsExported(d.name) || stdlibMethods[d.name] {
				continue
			}
			key = rel + "." + d.recv + "." + d.name
			ctxs := selUses[d.name]
			if fields[d.name] {
				ctxs = callUses[d.name]
			}
			used = read(ctxs, func(c owner) bool { return c == d.owner })
		}
		switch {
		case used:
		case orphanAllowed[key] != "":
			covered[key] = true
		case orphanAllowed[rel] != "":
			covered[rel] = true
		default:
			orphans = append(orphans, d.pos.String()+": "+key)
		}
	}
	for key := range orphanAllowed {
		if !covered[key] {
			t.Errorf("orphanAllowed names %s, which is read by production code or not declared; drop the entry", key)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("exported but read by no production code (delete it, or name it in orphanAllowed with a reason): %s", o)
	}
}

// recvName returns the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
