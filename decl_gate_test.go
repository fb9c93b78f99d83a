package vlasov6d

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// declarationOracles are the declarations no program reaches that tests of
// other code compare against; each names the test that uses it.
var declarationOracles = map[string]string{
	"internal/nbody.Particles.TotalMomentum": "hybrid.TestMomentumConservation",
	"internal/nbody.Particles.MinimumImage":  "ic.TestCDMParticlesLattice",
	"internal/phase.Grid.Scale":              "phase.TestMomentLinearityProperty",
	"internal/poisson.Solver.Gradient":       "poisson.TestAccelIntoMatchesGradient",
	"internal/poisson.Solver.idx3":           "poisson.TestAccelIntoMatchesGradient",
	"internal/vlasov.ComputeDiagnostics":     "vlasov.TestDiagnosticsInvariants",
	"internal/store.ReadAuditLog":            "serve.TestAdmissionAudit",
	"internal/sched.WithRetryBackoff":        "sched.TestStreamRetryThenSucceed",
}

// stdlibMethods are method names a standard-library interface calls; a
// method so named lives as long as its receiver type does.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteAt": true, "ReadFrom": true, "WriteTo": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true, "Flush": true,
}

// declUnit is one top-level declaration: a func, a method, a type, or a
// const/var (a parenthesised const/var group is one unit).
type declUnit struct {
	pkg, file, name string
	recv, method    string // set for methods
	node            ast.Node
	imports         map[string]string // file-local package name → package dir
	blank           bool              // only blank names: a compile-time check
	live            bool
}

// TestEveryDeclarationHasAProductionCaller is the declaration-level sibling
// of TestInternalPackagesHaveProductionImporters: a top-level declaration
// of any non-test file stays only if a program reaches it. Roots are the
// main functions of benchmark/ (read, never reported), the main functions
// of cmd/ and examples/ that something runs, init functions, and the test
// oracles above. A program under cmd/ or examples/ is run when its
// directory has a test file or a CI step names it in `go run ./<dir>` or
// `go build … ./<dir>`; one that is neither fails the gate by name. From
// the roots, a live declaration keeps alive every package-level name it
// mentions, every pkg.Name it selects, and every method of a live type
// whose name it selects or a standard-library interface calls. Resolution
// is by name, so the gate errs towards keeping.
func TestEveryDeclarationHasAProductionCaller(t *testing.T) {
	fset := token.NewFileSet()
	var units []*declUnit
	pkgName := map[string]string{}                // package dir → package name
	byName := map[string]map[string][]*declUnit{} // package dir → name → units
	methods := map[string][]*declUnit{}           // method name → units
	tested := map[string]bool{}                   // package dir → has a _test.go file
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
		if strings.HasSuffix(p, "_test.go") {
			tested[filepath.ToSlash(filepath.Dir(p))] = true
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkgName[dir] = f.Name.Name
		imports := map[string]string{}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			if ip != "vlasov6d" && !strings.HasPrefix(ip, "vlasov6d/") {
				continue
			}
			rel := strings.TrimPrefix(strings.TrimPrefix(ip, "vlasov6d"), "/")
			if rel == "" {
				rel = "."
			}
			local := path.Base(ip)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = rel
		}
		if byName[dir] == nil {
			byName[dir] = map[string][]*declUnit{}
		}
		add := func(u *declUnit, names ...string) {
			u.pkg, u.file, u.imports = dir, filepath.ToSlash(p), imports
			units = append(units, u)
			for _, n := range names {
				byName[dir][n] = append(byName[dir][n], u)
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(&declUnit{name: decl.Name.Name, node: decl}, decl.Name.Name)
					continue
				}
				u := &declUnit{recv: recvTypeName(decl.Recv.List[0].Type), method: decl.Name.Name, node: decl}
				u.name = u.recv + "." + u.method
				add(u)
				methods[u.method] = append(methods[u.method], u)
			case *ast.GenDecl:
				if decl.Tok == token.IMPORT {
					continue
				}
				if decl.Tok == token.TYPE {
					for _, s := range decl.Specs {
						ts := s.(*ast.TypeSpec)
						add(&declUnit{name: ts.Name.Name, node: ts}, ts.Name.Name)
					}
					continue
				}
				var names []string
				for _, s := range decl.Specs {
					for _, n := range s.(*ast.ValueSpec).Names {
						if n.Name != "_" {
							names = append(names, n.Name)
						}
					}
				}
				u := &declUnit{name: strings.Join(names, ", "), node: decl, blank: len(names) == 0}
				add(u, names...)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	key := func(u *declUnit) string { return u.pkg + "." + u.name }
	liveTypes := map[string]bool{} // "dir.Type"
	selected := map[string]bool{}  // method names selected anywhere live
	var queue []*declUnit
	mark := func(u *declUnit) {
		if !u.live {
			u.live = true
			queue = append(queue, u)
		}
	}
	markName := func(dir, name string) {
		for _, u := range byName[dir][name] {
			mark(u)
		}
	}
	ci := ciPrograms(t)
	foundOracles := map[string]bool{}
	for _, u := range units {
		isMain := pkgName[u.pkg] == "main" && u.name == "main" && u.recv == ""
		if isMain && (strings.HasPrefix(u.pkg, "cmd/") || strings.HasPrefix(u.pkg, "examples/")) {
			if !tested[u.pkg] && !ci[u.pkg] {
				t.Errorf("%s: no test and no CI step runs this program (give it a test, run it in .github/workflows/ci.yml, or delete it)", u.pkg)
				isMain = false
			}
		} else if !strings.HasPrefix(u.pkg, "benchmark") {
			isMain = false
		}
		_, oracle := declarationOracles[key(u)]
		if oracle {
			foundOracles[key(u)] = true
		}
		if isMain || (u.name == "init" && u.recv == "") || oracle {
			mark(u)
		}
	}
	for k := range declarationOracles {
		if !foundOracles[k] {
			t.Errorf("oracle %s names no declaration", k)
		}
	}
	for len(queue) > 0 {
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if u.recv == "" {
				if _, ok := u.node.(*ast.TypeSpec); ok {
					liveTypes[u.pkg+"."+u.name] = true
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok {
						if dir, ok := u.imports[id.Name]; ok {
							markName(dir, n.Sel.Name)
							return false
						}
					}
					selected[n.Sel.Name] = true
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					markName(u.pkg, n.Name)
				}
				return true
			}
			ast.Inspect(u.node, visit)
		}
		for name, ms := range methods {
			for _, m := range ms {
				if !m.live && liveTypes[m.pkg+"."+m.recv] && (selected[name] || stdlibMethods[name]) {
					mark(m)
				}
			}
		}
	}

	var dead []string
	for _, u := range units {
		if u.live || u.blank || strings.HasPrefix(u.pkg, "benchmark") {
			continue
		}
		dead = append(dead, u.file+": "+u.name)
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declarations no program reaches (delete them, or give them a production caller):\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// ciPrograms is the set of package directories a CI step runs or builds
// as a program: the first ./<dir> argument of every `go run` or `go build`
// in .github/workflows/ci.yml.
func ciPrograms(t *testing.T) map[string]bool {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]bool{}
	for _, m := range regexp.MustCompile(`\bgo (?:run|build)\b[^\n]*?\s\./(\S+)`).FindAllStringSubmatch(string(src), -1) {
		progs[strings.TrimSuffix(m[1], "/")] = true
	}
	return progs
}

// recvTypeName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvTypeName(e ast.Expr) string {
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

// knobExceptions are the settings no program writes that stay fields; each
// names its reason.
var knobExceptions = map[string]string{
	"internal/hybrid.Config.Theta": "benchmark/cosmo.go reads it to rebuild the run's tree.Options",
}

// TestEveryKnobHasAWriter is the field-level sibling of
// TestEveryDeclarationHasAProductionCaller: a setting stays a field only if
// a program sets it; one that nothing sets is a constant. A setting is an
// exported field of an exported struct named Config or Options (or ending
// so), or an untagged exported bool field of any exported struct, declared
// outside benchmark/. A write is an assignment, an increment, an address
// taken (&c.X, as a flag binding does) or a composite-literal key in any
// non-test file: the declaration gate already holds every non-test
// declaration reachable from an init or the main of a program that runs.
// Two writes in the field's own package do not count: a zero-fill
// (if c.X == 0 { c.X = … }) and a self-copy (X: s.X). Literal
// keys resolve by the literal's type, every other write by field name, so
// the gate errs towards keeping.
func TestEveryKnobHasAWriter(t *testing.T) {
	type source struct {
		dir, path string
		f         *ast.File
		imports   map[string]string // file-local package name → package dir
	}
	type setting struct{ pkg, typ, name, file string }
	var files []source
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
		src := source{dir: filepath.ToSlash(filepath.Dir(p)), path: filepath.ToSlash(p), f: f, imports: map[string]string{}}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			if ip != "vlasov6d" && !strings.HasPrefix(ip, "vlasov6d/") {
				continue
			}
			rel := strings.TrimPrefix(strings.TrimPrefix(ip, "vlasov6d"), "/")
			if rel == "" {
				rel = "."
			}
			local := path.Base(ip)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			src.imports[local] = rel
		}
		files = append(files, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The settings, and the type aliases a literal may name.
	var settings []setting
	alias := map[string]ast.Expr{} // "dir.Alias" → aliased type
	aliasSrc := map[string]source{}
	for _, src := range files {
		for _, decl := range src.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				key := src.dir + "." + ts.Name.Name
				if ts.Assign.IsValid() {
					alias[key], aliasSrc[key] = ts.Type, src
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				knobs := ts.Name.Name == "Config" || ts.Name.Name == "Options" ||
					strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")
				for _, fl := range st.Fields.List {
					typ, _ := fl.Type.(*ast.Ident)
					isBool := fl.Tag == nil && typ != nil && typ.Name == "bool"
					for _, n := range fl.Names {
						if ts.Name.IsExported() && n.IsExported() && (knobs || isBool) && !strings.HasPrefix(src.dir, "benchmark") {
							settings = append(settings, setting{src.dir, ts.Name.Name, n.Name, src.path})
						}
					}
				}
			}
		}
	}
	// typeOf names the type a literal of type expression e builds, following
	// aliases; "" when it is not a named type.
	var typeOf func(src source, e ast.Expr) string
	typeOf = func(src source, e ast.Expr) string {
		key := ""
		switch e := e.(type) {
		case *ast.Ident:
			key = src.dir + "." + e.Name
		case *ast.StarExpr:
			return typeOf(src, e.X)
		case *ast.SelectorExpr:
			if id, ok := e.X.(*ast.Ident); ok && src.imports[id.Name] != "" {
				key = src.imports[id.Name] + "." + e.Sel.Name
			}
		}
		if a, ok := alias[key]; ok {
			return typeOf(aliasSrc[key], a)
		}
		return key
	}

	// The writes. typ is the literal's type for a literal key, "" for a
	// write resolved by name; own marks a zero-fill or a self-copy.
	type write struct {
		dir, typ, name string
		own            bool
	}
	var writes []write
	sameName := func(name string, v ast.Expr) bool {
		sel, ok := v.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == name
	}
	for _, src := range files {
		field := func(e ast.Expr) string { // x.F for a value x, not a package
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			if id, ok := sel.X.(*ast.Ident); ok && src.imports[id.Name] != "" {
				return ""
			}
			return sel.Sel.Name
		}
		zeroFill := map[ast.Expr]bool{} // left-hand sides inside if c.X == 0
		litType := map[*ast.CompositeLit]string{}
		ast.Inspect(src.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				tested := map[string]bool{}
				ast.Inspect(n.Cond, func(c ast.Node) bool {
					if b, ok := c.(*ast.BinaryExpr); ok && b.Op == token.EQL && isZero(b.Y) {
						if name := field(b.X); name != "" {
							tested[name] = true
						}
					}
					return true
				})
				for _, st := range n.Body.List {
					if as, ok := st.(*ast.AssignStmt); ok {
						for _, lhs := range as.Lhs {
							if tested[field(lhs)] {
								zeroFill[lhs] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					break
				}
				for i, lhs := range n.Lhs {
					if name := field(lhs); name != "" {
						copied := len(n.Rhs) == len(n.Lhs) && sameName(name, n.Rhs[i])
						writes = append(writes, write{src.dir, "", name, zeroFill[lhs] || copied})
					}
				}
			case *ast.IncDecStmt:
				if name := field(n.X); name != "" {
					writes = append(writes, write{src.dir, "", name, false})
				}
			case *ast.UnaryExpr:
				if name := field(n.X); n.Op == token.AND && name != "" {
					writes = append(writes, write{src.dir, "", name, false})
				}
			case *ast.CompositeLit:
				typ, elt := litType[n], n.Type
				if n.Type != nil {
					typ = typeOf(src, n.Type)
				}
				switch lt := elt.(type) {
				case *ast.ArrayType:
					elt = lt.Elt
				case *ast.MapType:
					elt = lt.Value
				default:
					elt = nil
				}
				for _, e := range n.Elts {
					kv, keyed := e.(*ast.KeyValueExpr)
					if keyed {
						e = kv.Value
					}
					if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil && elt != nil {
						litType[lit] = typeOf(src, elt)
					}
					if !keyed || typ == "" {
						continue
					}
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes = append(writes, write{src.dir, typ, id.Name, sameName(id.Name, kv.Value)})
					}
				}
			}
			return true
		})
	}

	var unset []string
	found := map[string]bool{}
	for _, s := range settings {
		key := s.pkg + "." + s.typ + "." + s.name
		written := false
		for _, w := range writes {
			if w.name == s.name && (w.typ == "" || w.typ == s.pkg+"."+s.typ) && !(w.own && w.dir == s.pkg) {
				written = true
				break
			}
		}
		if _, ok := knobExceptions[key]; ok {
			found[key] = true
			if written {
				t.Errorf("exception %s has a writer now: drop it from knobExceptions", key)
			}
			continue
		}
		if !written {
			unset = append(unset, s.file+": "+s.typ+"."+s.name)
		}
	}
	for k := range knobExceptions {
		if !found[k] {
			t.Errorf("exception %s names no setting", k)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d settings no program sets (make them constants, or give them a writer):\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

// isZero reports whether e is a zero literal: 0, "", nil or false.
func isZero(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Value == "0" || e.Value == `""`
	case *ast.Ident:
		return e.Name == "nil" || e.Name == "false"
	}
	return false
}
