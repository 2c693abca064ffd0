// The exported-surface census: every exported identifier declared in a
// non-test file under internal/ must have a product caller in another
// directory (cmd/, examples/ and benchmark/ count), or sit in the
// reasoned allow-list below; and every exported struct field that a
// test writes must be written by a product file too, or sit in the
// field allow-list. `make api-unused` prints the full listing.
package sdrrdma_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const surfaceModule = "sdrrdma"

// surfaceAllow is the reasoned allow-list: exported identifiers with no
// product caller outside their package that stay exported anyway. Three
// kinds only — a method that satisfies a standard-library interface, a
// core call that mirrors the paper's sdr.h, and a fault-injection or
// inspection seam another package's tests need. At most 25 entries;
// an entry that stops being needed fails the test. An entry keeps the
// types its signature mentions exported, as a P identifier does.
var surfaceAllow = map[string]string{
	// Methods that satisfy fmt.Stringer; fmt calls them, so no caller
	// spells their names.
	"internal/chaos.Program.String":       "fmt.Stringer: the chaos-functional figure prints counterexample programs with %s",
	"internal/chaos.Fault.String":         "fmt.Stringer: Program.String renders each fault of the printed program through it",
	"internal/chaos.FaultKind.String":     "fmt.Stringer: Fault.String formats its kind with %s",
	"internal/telemetry.EventKind.String": "fmt.Stringer: Trace.Summary and the Chrome export name event kinds through it",

	// core calls that mirror the paper's sdr.h / Table 1; in-tree,
	// core.NewPairDetached and Pair.Bind are their only callers.
	"internal/core.NewContext":      "sdr.h context_create (Table 1)",
	"internal/core.Context.NewQP":   "sdr.h qp_create (Table 1)",
	"internal/core.QP.Info":         "sdr.h qp_info_get (Table 1)",
	"internal/core.QP.Connect":      "sdr.h qp_connect (Table 1)",
	"internal/core.SendHandle.Poll": "sdr.h send_poll (Table 1); the simulator injects synchronously, so only TestTable1APISurface polls",

	// Fault-injection and inspection seams other packages' tests need.
	"internal/fabric.Direction.ReleaseHeld": "fault injection: releases the packets an interceptor held (late-packet and wraparound tests in core, reack tests in reliability)",
	"internal/fabric.Hold":                  "fault injection: Interceptor verdict",
	"internal/nicsim.Device.NumMRs":         "inspection: session and collective tests watch the memory table for leaked registrations",
	"internal/core.ErrClockKind":            "inspection: session tests check a cross-kind re-home is refused with this error",
	"internal/core.ErrRecvQueueFull":        "inspection: reliability tests check a failed receive surfaces this error and releases its slots",
	"internal/telemetry.Trace.WriteChrome":  "inspection: sdr-perftest and experiments tests export the trace to a buffer, not a file",
}

const surfaceAllowMax = 25

// fieldAllow is the reasoned allow-list of the knob census: exported
// struct fields that tests write and no product file does, kept anyway.
// An entry that stops being needed fails the test.
var fieldAllow = map[string]string{
	"internal/protosim.Config.AckLossProb": "all three simulators draw rng.Float64() against it even at 0, so deleting it re-records every DES figure; ROADMAP item 14 turns it into a wan.LossModel with the same draws",
}

// Who writes a field: bit flags over every composite literal (keyed or
// positional), assignment, op-assignment and inc/dec that targets it.
const (
	writeTest    = 1 << iota // a _test.go file
	writeProduct             // any other file, benchmark/ included
)

// Reference strength, weakest first. A reference is judged from the
// referenced identifier's own directory.
const (
	refNone = iota // referenced by nothing
	refTo          // the package's own tests
	refO           // a non-test file of the identifier's own package
	refTx          // a _test.go file of another package
	refP           // a non-test file in another directory
)

var refNames = [...]string{"none", "To", "O", "Tx", "P"}

// surfaceRef is one place an identifier is used from.
type surfaceRef struct {
	dir  string
	test bool
}

// surfaceDecl is one exported identifier the census reports.
type surfaceDecl struct {
	name   string // "internal/netem.Queue.SetLoss"
	kind   string // func | method | type | var | const | field | imethod
	dir    string
	obj    types.Object
	viaSig bool // a type made P only by a P identifier's signature or field
}

// gated reports whether the census fails on the declaration for want
// of a product caller: funcs, methods on exported types, types, vars
// and consts are; struct fields (gated by who writes them instead, see
// testOnlyWrite) and interface methods (they must be exported for
// another package to implement them) are not.
func (d *surfaceDecl) gated() bool { return d.kind != "field" && d.kind != "imethod" }

type surfaceDir struct {
	rel                  string
	src, inTest, extTest []*ast.File
}

type surfaceCensus struct {
	t     *testing.T
	root  string
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]*surfaceDir
	pkgs  map[string]*types.Package         // product variant, by import path
	refs  map[token.Pos]map[surfaceRef]bool // by declaration position
	decls []*surfaceDecl
	// writes holds the writeTest/writeProduct flags of every struct
	// field written anywhere, by the field's declaration position.
	writes map[token.Pos]int
	// Named interfaces declared anywhere in the repo and named types
	// declared in a product unit, for the implements rule.
	ifaces, named []*types.Named
}

func (c *surfaceCensus) Import(path string) (*types.Package, error) {
	if path != surfaceModule && !strings.HasPrefix(path, surfaceModule+"/") {
		return c.std.Import(path)
	}
	if p := c.pkgs[path]; p != nil {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, surfaceModule), "/")
	if rel == "" {
		rel = "."
	}
	d := c.dirs[rel]
	if d == nil || len(d.src) == 0 {
		return nil, fmt.Errorf("no package in %s", rel)
	}
	p := c.check(path, d, d.src, false)
	c.pkgs[path] = p
	return p, nil
}

// check type-checks one unit and records every use it makes. With
// testsOnly set, uses in the unit's non-test files are skipped: the
// product variant of the same directory already recorded them.
func (c *surfaceCensus) check(path string, d *surfaceDir, files []*ast.File, testsOnly bool) *types.Package {
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: c,
		Error:    func(err error) { c.t.Errorf("type-check %s: %v", path, err) },
	}
	pkg, _ := conf.Check(path, c.fset, files, info)
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || !obj.Pos().IsValid() {
			continue
		}
		test := c.isTestFile(id.Pos())
		if testsOnly && !test {
			continue
		}
		set := c.refs[obj.Pos()]
		if set == nil {
			set = map[surfaceRef]bool{}
			c.refs[obj.Pos()] = set
		}
		set[surfaceRef{d.rel, test}] = true
	}
	for _, f := range files {
		if test := c.isTestFile(f.Pos()); test || !testsOnly {
			c.recordWrites(f, info, test)
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if types.IsInterface(n) {
			c.ifaces = append(c.ifaces, n)
		} else if !testsOnly {
			c.named = append(c.named, n)
		}
	}
	return pkg
}

// recordWrites flags every struct field f writes: the fields a keyed
// or positional composite literal sets, and a field selected on the
// left of an assignment, op-assignment or inc/dec.
func (c *surfaceCensus) recordWrites(f *ast.File, info *types.Info, test bool) {
	flag := writeProduct
	if test {
		flag = writeTest
	}
	mark := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			c.writes[v.Pos()] |= flag
		}
	}
	target := func(lhs ast.Expr) {
		if se, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
			if sel := info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
				mark(sel.Obj())
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						mark(info.Uses[key])
					}
				} else if i < st.NumFields() {
					mark(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			}
		case *ast.IncDecStmt:
			target(n.X)
		}
		return true
	})
}

// testOnlyWrite reports whether d is a field that a test writes and no
// product file does — a knob only tests turn.
func (c *surfaceCensus) testOnlyWrite(d *surfaceDecl) bool {
	return d.kind == "field" && c.writes[d.obj.Pos()] == writeTest
}

func (c *surfaceCensus) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(c.fset.Position(pos).Filename, "_test.go")
}

// load parses every buildable .go file of the module once.
func (c *surfaceCensus) load() {
	err := filepath.WalkDir(c.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != c.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(c.root, dir)
		rel = filepath.ToSlash(rel)
		d := c.dirs[rel]
		if d == nil {
			d = &surfaceDir{rel: rel}
			c.dirs[rel] = d
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			d.src = append(d.src, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			d.extTest = append(d.extTest, f)
		default:
			d.inTest = append(d.inTest, f)
		}
		return nil
	})
	if err != nil {
		c.t.Fatal(err)
	}
}

// collect lists the exported identifiers of one internal/ package.
func (c *surfaceCensus) collect(d *surfaceDir, pkg *types.Package) {
	add := func(kind, name string, obj types.Object) {
		if obj.Exported() && !c.isTestFile(obj.Pos()) {
			c.decls = append(c.decls, &surfaceDecl{name: d.rel + "." + name, kind: kind, dir: d.rel, obj: obj})
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Const:
			add("const", name, obj)
		case *types.Var:
			add("var", name, obj)
		case *types.Func:
			add("func", name, obj)
		case *types.TypeName:
			add("type", name, obj)
			n, ok := obj.Type().(*types.Named)
			if !ok || !obj.Exported() {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				add("method", name+"."+n.Method(i).Name(), n.Method(i))
			}
			switch u := n.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					add("field", name+"."+u.Field(i).Name(), u.Field(i))
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					add("imethod", name+"."+u.ExplicitMethod(i).Name(), u.ExplicitMethod(i))
				}
			}
		}
	}
}

// sigKey renders a signature without parameter names and with full
// package paths, so the product and test variants of one package (two
// type-checks, two sets of type objects) compare equal.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	qual := func(p *types.Package) string { return p.Path() }
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// linkInterfaceRefs applies the interface rule. A method inherits the
// references of every repo-declared interface method it implements.
// For an interface declared in a product file the link runs both ways
// — the interface method and all its implementers share one name, so
// they share one pool of references: a method that only satisfies
// nicsim.MemoryTarget cannot be unexported while benchmark/ calls
// another implementer's DMAWrite. A test-declared interface hands its
// references down only.
func (c *surfaceCensus) linkInterfaceRefs() {
	grew := true
	add := func(dst, src token.Pos) {
		for r := range c.refs[src] {
			if c.refs[dst] == nil {
				c.refs[dst] = map[surfaceRef]bool{}
			}
			if !c.refs[dst][r] {
				c.refs[dst][r] = true
				grew = true
			}
		}
	}
	impls := map[token.Pos][]token.Pos{} // interface method -> implementers
	for _, n := range c.named {
		mset := types.NewMethodSet(types.NewPointer(n))
		for _, in := range c.ifaces {
			it := in.Underlying().(*types.Interface)
			var pairs [][2]token.Pos
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				sel := mset.Lookup(n.Obj().Pkg(), im.Name())
				if sel == nil || (!im.Exported() && im.Pkg().Path() != n.Obj().Pkg().Path()) ||
					sigKey(sel.Obj().Type().(*types.Signature)) != sigKey(im.Type().(*types.Signature)) {
					pairs = nil
					break
				}
				pairs = append(pairs, [2]token.Pos{sel.Obj().Pos(), im.Pos()})
			}
			for _, p := range pairs {
				impls[p[1]] = append(impls[p[1]], p[0])
			}
		}
	}
	for grew { // to a fixpoint: one method may implement several interfaces
		grew = false
		for im, ms := range impls {
			for _, m := range ms {
				if !c.isTestFile(im) {
					add(im, m)
				}
				add(m, im)
			}
		}
	}
}

func (c *surfaceCensus) class(d *surfaceDecl) int {
	best := refNone
	for r := range c.refs[d.obj.Pos()] {
		cl := refTo
		switch {
		case r.dir != d.dir && !r.test:
			cl = refP
		case r.dir != d.dir:
			cl = refTx
		case !r.test:
			cl = refO
		}
		best = max(best, cl)
	}
	if d.viaSig {
		best = refP
	}
	return best
}

// benchmarkOnly reports whether benchmark/ is the identifier's only
// product caller outside its own directory.
func (c *surfaceCensus) benchmarkOnly(d *surfaceDecl) bool {
	if d.viaSig {
		return false
	}
	for r := range c.refs[d.obj.Pos()] {
		if r.dir != d.dir && !r.test && r.dir != "benchmark" {
			return false
		}
	}
	return true
}

// mentions calls visit for every named type the type spells, without
// descending into the named types' own definitions.
func mentions(t types.Type, visit func(*types.Named)) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		visit(t.Origin())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			mentions(t.TypeArgs().At(i), visit)
		}
	case *types.Pointer:
		mentions(t.Elem(), visit)
	case *types.Slice:
		mentions(t.Elem(), visit)
	case *types.Array:
		mentions(t.Elem(), visit)
	case *types.Chan:
		mentions(t.Elem(), visit)
	case *types.Map:
		mentions(t.Key(), visit)
		mentions(t.Elem(), visit)
	case *types.Signature:
		mentions(t.Params(), visit)
		mentions(t.Results(), visit)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			mentions(t.At(i).Type(), visit)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if t.Field(i).Exported() {
				mentions(t.Field(i).Type(), visit)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			mentions(t.Method(i).Type(), visit)
		}
	}
}

// propagateTypes marks as P every type that a P identifier's signature
// or exported field mentions, transitively.
func (c *surfaceCensus) propagateTypes() {
	byPos := map[token.Pos]*surfaceDecl{}
	var work []*surfaceDecl
	for _, d := range c.decls {
		if d.kind == "type" {
			byPos[d.obj.Pos()] = d
		}
		if _, kept := surfaceAllow[d.name]; d.gated() && (kept || c.class(d) == refP) {
			work = append(work, d)
		}
	}
	visit := func(n *types.Named) {
		if d := byPos[n.Obj().Pos()]; d != nil && c.class(d) != refP {
			d.viaSig = true
			work = append(work, d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		if tn, ok := d.obj.(*types.TypeName); ok {
			mentions(tn.Type().Underlying(), visit)
		} else {
			mentions(d.obj.Type(), visit)
		}
	}
}

// runCensus parses and type-checks the module rooted at root, records
// every reference and field write, and collects the exported
// declarations of its internal/ packages, sorted by name. It returns
// the census and the package directories, sorted.
func runCensus(t *testing.T, root string) (*surfaceCensus, []string) {
	fset := token.NewFileSet()
	c := &surfaceCensus{
		t: t, root: root, fset: fset,
		std:    importer.ForCompiler(fset, "source", nil),
		dirs:   map[string]*surfaceDir{},
		pkgs:   map[string]*types.Package{},
		refs:   map[token.Pos]map[surfaceRef]bool{},
		writes: map[token.Pos]int{},
	}
	c.load()

	rels := slices.Sorted(maps.Keys(c.dirs))
	for _, rel := range rels {
		d := c.dirs[rel]
		path := surfaceModule
		if rel != "." {
			path += "/" + rel
		}
		if len(d.src) > 0 {
			pkg, err := c.Import(path)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(rel, "internal/") {
				c.collect(d, pkg)
			}
		}
		if len(d.inTest) > 0 {
			c.check(path, d, append(append([]*ast.File{}, d.src...), d.inTest...), true)
		}
		if len(d.extTest) > 0 {
			c.check(path+"_test", d, d.extTest, true)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	c.linkInterfaceRefs()
	c.propagateTypes()
	slices.SortFunc(c.decls, func(a, b *surfaceDecl) int { return strings.Compare(a.name, b.name) })
	return c, rels
}

// fieldWriters names the writer class of a field for the listing.
func (c *surfaceCensus) fieldWriters(d *surfaceDecl) string {
	switch w := c.writes[d.obj.Pos()]; {
	case w&writeProduct != 0:
		return "product"
	case w != 0:
		return "tests only"
	}
	return "none"
}

func TestExportedSurface(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	c, rels := runCensus(t, root)

	byClass := map[string][]string{}
	perPkg := map[string]int{}
	used := map[string]bool{}
	usedField := map[string]bool{}
	for _, d := range c.decls {
		cl := c.class(d)
		label := refNames[cl]
		switch {
		case d.kind == "field":
			label = "field, written by " + c.fieldWriters(d)
			if _, ok := fieldAllow[d.name]; ok && c.testOnlyWrite(d) {
				label = "allow-listed: " + label
			}
		case !d.gated():
			label = d.kind + " (listed, not gated): " + label
		case cl == refP && c.benchmarkOnly(d):
			label = "P, benchmark/ only"
		case cl == refP && d.viaSig:
			label = "P, by signature"
		case cl != refP && surfaceAllow[d.name] != "":
			label = "allow-listed: " + label
		}
		byClass[label] = append(byClass[label], fmt.Sprintf("%s (%s)", d.name, d.kind))
		if c.testOnlyWrite(d) {
			if reason, ok := fieldAllow[d.name]; ok {
				usedField[d.name] = true
				if strings.TrimSpace(reason) == "" {
					t.Errorf("field allow-list entry %s has no reason", d.name)
				}
				continue
			}
			t.Errorf("field %s: written by tests and by no product file — a knob no deployment sets", d.name)
		}
		if !d.gated() {
			continue
		}
		if d.kind == "func" || d.kind == "method" || d.kind == "type" {
			perPkg[d.dir]++
		}
		if cl == refP {
			continue
		}
		if reason, ok := surfaceAllow[d.name]; ok {
			used[d.name] = true
			if strings.TrimSpace(reason) == "" {
				t.Errorf("allow-list entry %s has no reason", d.name)
			}
			continue
		}
		t.Errorf("%-4s %s (%s): no product caller outside %s", refNames[cl], d.name, d.kind, d.dir)
	}
	for name := range surfaceAllow {
		if !used[name] {
			t.Errorf("allow-list entry %s is stale: the identifier is gone or has a product caller", name)
		}
	}
	for name := range fieldAllow {
		if !usedField[name] {
			t.Errorf("field allow-list entry %s is stale: the field is gone or a product file writes it", name)
		}
	}
	if len(surfaceAllow) > surfaceAllowMax {
		t.Errorf("allow-list holds %d entries, at most %d", len(surfaceAllow), surfaceAllowMax)
	}

	if testing.Verbose() {
		for _, l := range slices.Sorted(maps.Keys(byClass)) {
			t.Logf("== %s: %d\n  %s", l, len(byClass[l]), strings.Join(byClass[l], "\n  "))
		}
		total := 0
		var b strings.Builder
		for _, rel := range rels {
			if n := perPkg[rel]; n > 0 {
				fmt.Fprintf(&b, "%6d %s\n", n, rel)
				total += n
			}
		}
		t.Logf("exported funcs + methods + types per package (`make api` counts the same, less methods with an unnamed receiver):\n%s%6d total", b.String(), total)
	}
}

// The knob census on a synthetic module: of three fields, only the one
// its test writes and no product code does is flagged — not the one a
// product constructor sets, nor the atomic counter that both sides
// change through methods only.
func TestFieldCensusFlagsTestOnlyWrites(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "knobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"knobs.go": `package knobs

import "sync/atomic"

type Config struct {
	TestOnly int
	Product  int
	Hits     atomic.Int64
}

func New() *Config { return &Config{Product: 1} }

func (c *Config) Touch() { c.Hits.Add(1) }
`,
		"knobs_test.go": `package knobs

func use() {
	c := New()
	c.TestOnly = 2
	c.Product++
	c.Hits.Store(3)
	_ = &Config{TestOnly: 4}
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, _ := runCensus(t, root)
	var flagged, fields []string
	for _, d := range c.decls {
		if d.kind == "field" {
			fields = append(fields, d.name+": "+c.fieldWriters(d))
			if c.testOnlyWrite(d) {
				flagged = append(flagged, d.name)
			}
		}
	}
	if want := []string{"internal/knobs.Config.TestOnly"}; !slices.Equal(flagged, want) {
		t.Errorf("flagged %v, want %v (writers: %v)", flagged, want, fields)
	}
}
