package vlasov6d

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
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
}

// benchmarkOnly are the declarations outside benchmark/ that benchmark/'s
// main reaches and no program under cmd/ does (ROADMAP item 5's worklist).
// The list may only shrink: a declaration that joins the set, gains a
// production caller or goes fails the gate until the list says so.
var benchmarkOnly = []string{
	"NewPlasmaSolverWithScheme", "NewStream", "PlasmaSolver",
	"RestorePlasmaSolver", "RunDiagnostics", "Stream", "WithoutNeutrinos",
	"internal/advect.SLMPP5.StepOpen", "internal/fft.FFT3.Forward",
	"internal/fft.FFT3.Inverse", "internal/fft.FFT3.transform",
	"internal/nbody.Particles.Clone", "internal/phase.Grid.Clone",
	"internal/phase.Grid.MinValue", "internal/plasma.Solver.DriftStep",
	"internal/plasma.Solver.KickStep", "internal/poisson.Solver.Accel",
	"internal/poisson.Solver.Solve", "internal/poisson.Solver.SolveFiltered",
	"internal/sched.Stream.Submit", "internal/serve.Server.Close",
	"internal/store.Store.Compact", "internal/tree.DirectShortRange",
	"internal/tree.Tree.Accel", "internal/tree.kernelScalar",
	"internal/tree.minImage", "internal/vlasov.Solver.KickHalf",
	"internal/vlasov.Solver.Step",
}

// stdlibInterfaces are the standard-library interfaces through which the
// standard library calls a program's methods (fmt, errors, sort,
// container/heap, io, net/http, encoding/json): a live type keeps the
// methods of each one it implements through T or *T.
const stdlibInterfaces = `package std

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

type (
	stringer        = fmt.Stringer
	goStringer      = fmt.GoStringer
	formatter       = fmt.Formatter
	errorer         = error
	unwrapper       = interface{ Unwrap() error }
	iser            = interface{ Is(error) bool }
	aser            = interface{ As(any) bool }
	heaper          = heap.Interface
	reader          = io.Reader
	writer          = io.Writer
	closer          = io.Closer
	seeker          = io.Seeker
	readerAt        = io.ReaderAt
	writerAt        = io.WriterAt
	readerFrom      = io.ReaderFrom
	writerTo        = io.WriterTo
	handler         = http.Handler
	flusher         = http.Flusher
	jsonMarshaler   = json.Marshaler
	jsonUnmarshaler = json.Unmarshaler
	textMarshaler   = encoding.TextMarshaler
	textUnmarshaler = encoding.TextUnmarshaler
)
`

// gateArchs are the GOARCH values the gates load the tree for: amd64
// compiles the assembly kernels' Go side, arm64 the *_other.go stubs.
var gateArchs = []string{"amd64", "arm64"}

// declUnit is one top-level declaration: a func, a method, a type, or a
// const/var (a parenthesised const/var group is one unit).
type declUnit struct {
	pkg, file, name string // pkg and file relative to the root, slash-separated
	node            ast.Node
	init, main      bool // a func init, or a func main
	blank           bool // only blank names: a compile-time check
}

// key names u as declarationOracles and benchmarkOnly do: the package
// directory, then the name (Type.Method for a method).
func (u *declUnit) key() string {
	if u.pkg == "." {
		return u.name
	}
	return u.pkg + "." + u.name
}

// gatePackage is one package of one GOARCH's load.
type gatePackage struct {
	dir    string // relative to the root
	tested bool   // the directory has a _test.go file
	files  []*ast.File
	units  []*declUnit
	types  *types.Package
}

// gatePass is the tree type-checked for one GOARCH: every package under
// the root, in go/build's file selection for that GOARCH.
type gatePass struct {
	pkgs   []*gatePackage
	info   *types.Info
	unitOf map[types.Object]*declUnit // package-level object or method → its unit
}

// gateTree is the whole load: one file set and parse shared by the passes.
type gateTree struct {
	root   string
	fset   *token.FileSet
	units  []*declUnit // every declaration of every pass, each once
	passes []*gatePass
	std    *types.Package // stdlibInterfaces, checked
}

// loadGateTree parses and type-checks every non-test package under root
// (skipping testdata and dot directories) once per gateArchs entry. The
// import path of a directory is the root module's path joined with it,
// which also holds for a nested module such as benchmark/. The standard
// library comes from source through one importer both passes share.
func loadGateTree(root string) (*gateTree, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	std, err := loadGateStd()
	if err != nil {
		return nil, err
	}
	tree := &gateTree{root: root, fset: std.fset, std: std.ifaces}
	parsed := map[string]*ast.File{}
	unitsOf := map[*ast.File][]*declUnit{}
	for _, arch := range gateArchs {
		ctx := build.Default
		ctx.GOARCH = arch
		pass := &gatePass{
			info: &types.Info{
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
			unitOf: map[types.Object]*declUnit{},
		}
		byPath := map[string]*gatePackage{}
		for _, dir := range dirs {
			bp, err := ctx.ImportDir(dir, 0)
			if _, none := err.(*build.NoGoError); none {
				continue
			}
			if err != nil {
				return nil, err
			}
			rel, _ := filepath.Rel(root, dir)
			pkg := &gatePackage{dir: filepath.ToSlash(rel), tested: len(bp.TestGoFiles)+len(bp.XTestGoFiles) > 0}
			for _, name := range bp.GoFiles {
				p := filepath.Join(dir, name)
				f := parsed[p]
				if f == nil {
					if f, err = parser.ParseFile(tree.fset, p, nil, parser.SkipObjectResolution); err != nil {
						return nil, err
					}
					parsed[p] = f
					file, _ := filepath.Rel(root, p)
					unitsOf[f] = declUnits(pkg.dir, filepath.ToSlash(file), f)
					tree.units = append(tree.units, unitsOf[f]...)
				}
				pkg.files = append(pkg.files, f)
				pkg.units = append(pkg.units, unitsOf[f]...)
			}
			path := module
			if pkg.dir != "." {
				path += "/" + pkg.dir
			}
			byPath[path] = pkg
			pass.pkgs = append(pass.pkgs, pkg)
		}
		conf := &types.Config{Sizes: types.SizesFor("gc", arch)}
		var check func(path string) (*types.Package, error)
		conf.Importer = importerFunc(func(path string) (*types.Package, error) {
			if _, ok := byPath[path]; ok {
				return check(path)
			}
			return std.importer.Import(path)
		})
		check = func(path string) (*types.Package, error) {
			pkg := byPath[path]
			if pkg.types != nil {
				return pkg.types, nil
			}
			tp, err := conf.Check(path, tree.fset, pkg.files, pass.info)
			if err != nil {
				return nil, fmt.Errorf("GOARCH=%s: %v", arch, err)
			}
			pkg.types = tp
			return tp, nil
		}
		for path, pkg := range byPath {
			if _, err := check(path); err != nil {
				return nil, err
			}
			for _, u := range pkg.units {
				for _, id := range unitNames(u.node) {
					pass.unitOf[pass.info.Defs[id]] = u
				}
			}
		}
		tree.passes = append(tree.passes, pass)
	}
	return tree, nil
}

// gateStd is the standard library every load shares: one file set and
// one source importer, so that a process type-checks each standard package
// once.
type gateStd struct {
	fset     *token.FileSet
	importer types.Importer
	ifaces   *types.Package // stdlibInterfaces, checked
}

var loadGateStd = sync.OnceValues(func() (*gateStd, error) {
	std := &gateStd{fset: token.NewFileSet()}
	std.importer = importer.ForCompiler(std.fset, "source", nil)
	f, err := parser.ParseFile(std.fset, "stdlib_interfaces.go", stdlibInterfaces, 0)
	if err != nil {
		return nil, err
	}
	std.ifaces, err = (&types.Config{Importer: std.importer}).Check("std", std.fset, []*ast.File{f}, nil)
	return std, err
})

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePath reads the module path of a go.mod file.
func modulePath(gomod string) (string, error) {
	src, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(src)
	if m == nil {
		return "", fmt.Errorf("%s: no module line", gomod)
	}
	return string(m[1]), nil
}

// declUnits lists the top-level declarations of one file.
func declUnits(pkg, file string, f *ast.File) []*declUnit {
	var units []*declUnit
	add := func(u *declUnit) {
		u.pkg, u.file = pkg, file
		units = append(units, u)
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			u := &declUnit{name: decl.Name.Name, node: decl}
			if decl.Recv != nil {
				u.name = recvTypeName(decl.Recv.List[0].Type) + "." + u.name
			} else {
				u.init = u.name == "init"
				u.main = u.name == "main" && f.Name.Name == "main"
			}
			add(u)
		case *ast.GenDecl:
			switch decl.Tok {
			case token.IMPORT:
			case token.TYPE:
				for _, s := range decl.Specs {
					add(&declUnit{name: s.(*ast.TypeSpec).Name.Name, node: s})
				}
			default:
				var names []string
				for _, id := range unitNames(decl) {
					names = append(names, id.Name)
				}
				add(&declUnit{name: strings.Join(names, ", "), node: decl, blank: len(names) == 0})
			}
		}
	}
	return units
}

// unitNames are the non-blank identifiers a declaration unit defines.
func unitNames(n ast.Node) []*ast.Ident {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{n.Name}
	case *ast.TypeSpec:
		return []*ast.Ident{n.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range n.Specs {
			for _, id := range s.(*ast.ValueSpec).Names {
				if id.Name != "_" {
					ids = append(ids, id)
				}
			}
		}
		return ids
	}
	return nil
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

// repoTree is the load of this repository both gates share.
var repoTree = sync.OnceValues(func() (*gateTree, error) { return loadGateTree(".") })

func loadRepoTree(t *testing.T) *gateTree {
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// declReport is what the declaration gate finds in a tree.
type declReport struct {
	dead          []string // "file: name" of each declaration no program reaches
	benchmarkOnly []string // keys of the declarations only benchmark/'s main reaches
	problems      []string // programs nothing runs, oracles that name nothing
}

// checkDeclarations marks, in each pass, what the programs of the tree
// reach; a declaration lives if either pass reaches it. The roots are, in
// a first phase, the main functions of cmd/ that something runs, the init
// functions of the packages they import and the oracles; in a second, the
// main functions of benchmark/ and the init functions of their imports.
// A program under cmd/ is run when its directory has a test file or a CI
// step names it in `go run ./<dir>` or `go build … ./<dir>`; one that is
// neither is a problem. From the roots, a live declaration keeps alive
// every object it uses (types.Info.Uses: a package-level name, or the one
// method a selector resolves to, its Origin for a generic type). A call
// through an interface method keeps that method on every live type whose
// T or *T implements the interface, and the standard library calls the
// methods of stdlibInterfaces so on every live type. Declarations under
// benchmark/ are read, never reported.
func checkDeclarations(tree *gateTree, oracles map[string]string) *declReport {
	rep := &declReport{}
	ci, err := ciPrograms(filepath.Join(tree.root, ".github/workflows/ci.yml"))
	if err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	liveCmd, live := map[*declUnit]bool{}, map[*declUnit]bool{}
	unrun := map[string]bool{}
	for _, pass := range tree.passes {
		m := newMarker(tree, pass)
		var cmdProgs, benchProgs []*gatePackage
		for _, pkg := range pass.pkgs {
			if pkg.types.Name() != "main" {
				continue
			}
			switch {
			case strings.HasPrefix(pkg.dir, "cmd/") && (pkg.tested || ci[pkg.dir]):
				cmdProgs = append(cmdProgs, pkg)
			case strings.HasPrefix(pkg.dir, "cmd/"):
				unrun[pkg.dir] = true
			case pkg.dir == "benchmark" || strings.HasPrefix(pkg.dir, "benchmark/"):
				benchProgs = append(benchProgs, pkg)
			}
		}
		for _, u := range tree.units {
			if _, ok := oracles[u.key()]; ok {
				m.mark(u)
			}
		}
		m.programs(cmdProgs)
		for u := range m.live {
			liveCmd[u] = true
		}
		m.programs(benchProgs)
		for u := range m.live {
			live[u] = true
		}
	}
	for dir := range unrun {
		rep.problems = append(rep.problems, dir+": no test and no CI step runs this program (give it a test, run it in .github/workflows/ci.yml, or delete it)")
	}
	keys := map[string]bool{}
	for _, u := range tree.units {
		keys[u.key()] = true
		if u.blank || u.pkg == "benchmark" || strings.HasPrefix(u.pkg, "benchmark/") {
			continue
		}
		switch {
		case !live[u]:
			rep.dead = append(rep.dead, u.file+": "+u.name)
		case !liveCmd[u]:
			rep.benchmarkOnly = append(rep.benchmarkOnly, u.key())
		}
	}
	for k := range oracles {
		if !keys[k] {
			rep.problems = append(rep.problems, "oracle "+k+" names no declaration")
		}
	}
	sort.Strings(rep.problems)
	sort.Strings(rep.dead)
	sort.Strings(rep.benchmarkOnly)
	rep.benchmarkOnly = slices.Compact(rep.benchmarkOnly)
	return rep
}

// marker is one pass's mark phase.
type marker struct {
	pass    *gatePass
	live    map[*declUnit]bool
	queue   []*declUnit
	types   []*types.TypeName // live named non-interface types
	called  []*types.Func     // interface methods called
	isCall  map[*types.Func]bool
	matched map[[2]types.Object]bool // (type, interface method) pairs tried
}

func newMarker(tree *gateTree, pass *gatePass) *marker {
	m := &marker{pass: pass, live: map[*declUnit]bool{}, isCall: map[*types.Func]bool{}, matched: map[[2]types.Object]bool{}}
	for _, name := range tree.std.Scope().Names() {
		iface := tree.std.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			m.use(iface.Method(i))
		}
	}
	return m
}

func (m *marker) mark(u *declUnit) {
	if !m.live[u] {
		m.live[u] = true
		m.queue = append(m.queue, u)
	}
}

// programs marks the main functions of progs and the init functions of
// every package of the tree they import, then runs to the fixed point.
func (m *marker) programs(progs []*gatePackage) {
	imported := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if !imported[p] {
			imported[p] = true
			for _, q := range p.Imports() {
				visit(q)
			}
		}
	}
	for _, pkg := range progs {
		visit(pkg.types)
	}
	for _, pkg := range m.pass.pkgs {
		for _, u := range pkg.units {
			if imported[pkg.types] && u.init || u.main && slices.Contains(progs, pkg) {
				m.mark(u)
			}
		}
	}
	m.run()
}

// use keeps obj: its declaration, or, for an interface method, that method
// on every live type that implements the interface.
func (m *marker) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			if !m.isCall[o] {
				m.isCall[o] = true
				m.called = append(m.called, o)
			}
			return
		}
		obj = o
	}
	if u := m.pass.unitOf[obj]; u != nil {
		m.mark(u)
	}
}

func (m *marker) run() {
	for len(m.queue) > 0 {
		for len(m.queue) > 0 {
			u := m.queue[0]
			m.queue = m.queue[1:]
			if ts, ok := u.node.(*ast.TypeSpec); ok {
				// Implements leaves an uninstantiated generic type
				// unspecified; no generic type here implements an interface.
				tn := m.pass.info.Defs[ts.Name].(*types.TypeName)
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 && !types.IsInterface(named) {
					m.types = append(m.types, tn)
				}
			}
			ast.Inspect(u.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := m.pass.info.Uses[id]; obj != nil {
						m.use(obj)
					}
				}
				return true
			})
		}
		for i := 0; i < len(m.called); i++ {
			f := m.called[i]
			iface := f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			for _, tn := range m.types {
				if m.matched[[2]types.Object{tn, f}] {
					continue
				}
				m.matched[[2]types.Object{tn, f}] = true
				t := tn.Type()
				if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
					obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), false, f.Pkg(), f.Name())
					m.use(obj)
				}
			}
		}
	}
}

// ciPrograms is the set of package directories a CI step runs or builds
// as a program: the first ./<dir> argument of every `go run` or `go build`
// in the CI workflow. A tree without one runs none.
func ciPrograms(workflow string) (map[string]bool, error) {
	src, err := os.ReadFile(workflow)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	progs := map[string]bool{}
	for _, m := range regexp.MustCompile(`\bgo (?:run|build)\b[^\n]*?\s\./(\S+)`).FindAllStringSubmatch(string(src), -1) {
		progs[strings.TrimSuffix(m[1], "/")] = true
	}
	return progs, nil
}

// TestEveryDeclarationHasAProductionCaller holds every top-level
// declaration of a non-test file to a program that reaches it
// (checkDeclarations), and pins what only benchmark/ reaches to
// benchmarkOnly. It is also the package-level gate: an internal package no
// program imports has no live declaration.
func TestEveryDeclarationHasAProductionCaller(t *testing.T) {
	rep := checkDeclarations(loadRepoTree(t), declarationOracles)
	for _, p := range rep.problems {
		t.Error(p)
	}
	if len(rep.dead) > 0 {
		t.Errorf("%d declarations no program reaches (delete them, or give them a production caller):\n\t%s",
			len(rep.dead), strings.Join(rep.dead, "\n\t"))
	}
	for _, k := range rep.benchmarkOnly {
		if !slices.Contains(benchmarkOnly, k) {
			t.Errorf("%s: only benchmark/ reaches it (give it a production caller, or delete it)", k)
		}
	}
	for _, k := range benchmarkOnly {
		if !slices.Contains(rep.benchmarkOnly, k) {
			t.Errorf("benchmarkOnly lists %s, which a program under cmd/ now reaches or which has gone: drop it from the list", k)
		}
	}
}

// TestDeclarationGateFixture runs the gate on testdata/declgate, a tree
// whose every case the gate must resolve by type.
func TestDeclarationGateFixture(t *testing.T) {
	tree, err := loadGateTree(filepath.Join("testdata", "declgate"))
	if err != nil {
		t.Fatal(err)
	}
	rep := checkDeclarations(tree, nil)
	want := &declReport{
		// Size shares its name with the live app.Counter.Size.
		dead:          []string{"lib/lib.go: Sized.Size"},
		benchmarkOnly: []string{"lib.BenchOnly"},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("fixture report\n%#v\nwant\n%#v", rep, want)
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
// (if c.X == 0 { c.X = … }) and a self-copy (X: s.X). Every write
// resolves to its field object through the type-checked load.
func TestEveryKnobHasAWriter(t *testing.T) {
	tree := loadRepoTree(t)
	settings := map[string]string{} // key → "file: Type.Field"
	written := map[string]bool{}
	for _, pass := range tree.passes {
		keyOf := map[*types.Var]string{}
		for _, pkg := range pass.pkgs {
			if pkg.dir == "benchmark" || strings.HasPrefix(pkg.dir, "benchmark/") {
				continue
			}
			scope := pkg.types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() || !tn.Exported() {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				knobs := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
				for i := range st.NumFields() {
					f := st.Field(i)
					isBool := st.Tag(i) == "" && f.Type() == types.Typ[types.Bool]
					if f.Exported() && !f.Embedded() && (knobs || isBool) {
						key := pkg.dir + "." + name + "." + f.Name()
						keyOf[f] = key
						file, _ := filepath.Rel(tree.root, tree.fset.Position(f.Pos()).Filename)
						settings[key] = filepath.ToSlash(file) + ": " + name + "." + f.Name()
					}
				}
			}
		}
		fieldOf := func(e ast.Expr) *types.Var {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if s := pass.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return s.Obj().(*types.Var).Origin()
				}
			}
			return nil
		}
		for _, pkg := range pass.pkgs {
			write := func(f *types.Var, own bool) {
				if key := keyOf[f]; key != "" && !(own && f.Pkg() == pkg.types) {
					written[key] = true
				}
			}
			for _, file := range pkg.files {
				zeroFill := map[ast.Expr]bool{} // left-hand sides inside if c.X == 0
				ast.Inspect(file, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.IfStmt:
						tested := map[*types.Var]bool{}
						ast.Inspect(n.Cond, func(c ast.Node) bool {
							if b, ok := c.(*ast.BinaryExpr); ok && b.Op == token.EQL && isZero(b.Y) {
								if f := fieldOf(b.X); f != nil {
									tested[f] = true
								}
							}
							return true
						})
						for _, st := range n.Body.List {
							if as, ok := st.(*ast.AssignStmt); ok {
								for _, lhs := range as.Lhs {
									if f := fieldOf(lhs); f != nil && tested[f] {
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
							if f := fieldOf(lhs); f != nil {
								copied := len(n.Rhs) == len(n.Lhs) && fieldOf(n.Rhs[i]) == f
								write(f, zeroFill[lhs] || copied)
							}
						}
					case *ast.IncDecStmt:
						write(fieldOf(n.X), false)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							write(fieldOf(n.X), false)
						}
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							if f, ok := pass.info.Uses[id].(*types.Var); ok && f.IsField() {
								f = f.Origin()
								write(f, fieldOf(n.Value) == f)
							}
						}
					}
					return true
				})
			}
		}
	}

	var unset []string
	for key, where := range settings {
		if _, ok := knobExceptions[key]; ok {
			if written[key] {
				t.Errorf("exception %s has a writer now: drop it from knobExceptions", key)
			}
			continue
		}
		if !written[key] {
			unset = append(unset, where)
		}
	}
	for k := range knobExceptions {
		if settings[k] == "" {
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
