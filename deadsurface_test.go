// Dead surface: a declaration under internal/ or ttg/ that no package of
// the module uses. The compiler flags an unused local, never an unused
// package-level declaration, exported method or struct field, so this
// check does: it type-checks every package of the module from source —
// each test variant as `go test` builds it, the standard library from the
// compiler's export data — and lists every declaration no identifier of
// the module resolves to.
package repro

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// deadSurfaceAllow names the declarations the check may list, one a line:
// the name as the check prints it, then the reason it stays.
const deadSurfaceAllow = "testdata/deadsurface.allow"

// TestNoDeadSurface fails on every declaration deadSurface lists that the
// allowlist does not name, and on every allowlist entry the check no
// longer lists (the declaration is used now, or gone).
func TestNoDeadSurface(t *testing.T) {
	start := time.Now()
	dead, err := deadSurface(".", "internal", "ttg")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readDeadSurfaceAllow(deadSurfaceAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		if _, ok := allow[d.Name]; ok {
			delete(allow, d.Name)
			continue
		}
		t.Errorf("%s: %s: nothing in the module uses it", d.Pos, d.Name)
	}
	for name := range allow {
		t.Errorf("%s: allowlisted in %s but not listed: drop the entry", name, deadSurfaceAllow)
	}
	t.Logf("%d unused declarations (allowlisted or not), found in %v", len(dead), time.Since(start).Round(time.Millisecond))
}

// TestDeadSurfaceFixture runs the check on a fixture module that has one
// of each exemption — a String method, a method satisfying the fixture's
// own interface, an embedded field, a struct built by position, a func
// used only from a test file — next to an unused exported func, a func
// that only calls itself and an unused package var: only those three may
// be listed.
func TestDeadSurfaceFixture(t *testing.T) {
	dead, err := deadSurface("testdata/deadsurface", "internal")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.Name+" "+d.Pos)
	}
	want := []string{
		"internal/shapes.Recurse internal/shapes/shapes.go:50",
		"internal/shapes.Unused internal/shapes/shapes.go:58",
		"internal/shapes.scale internal/shapes/shapes.go:61",
	}
	if !slices.Equal(got, want) {
		t.Errorf("listed\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// readDeadSurfaceAllow reads the allowlist: "<name> <reason>" lines, '#'
// comments and blank lines skipped. An entry without a reason is an error.
func readDeadSurfaceAllow(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// deadDecl is one listed declaration: its name (module-relative package
// path, then the receiver type for a method or field) and its position.
type deadDecl struct{ Name, Pos string }

// listedPkg is the part of `go list -json` the check reads.
type listedPkg struct {
	ImportPath, Dir, Export, ForTest string
	Standard                         bool
	GoFiles                          []string
	ImportMap                        map[string]string
	Module                           *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// decl is one checked declaration.
type decl struct {
	name    string
	file    string
	line    int
	extents [][2]token.Pos // uses inside its own declaration do not count
	used    bool
}

// deadSurface lists the declarations made in the non-test files of the
// module at dir, in packages under one of roots, that no package of the
// module uses: package-level funcs, vars, consts and types, exported or
// not, and exported methods and struct fields. A use is an identifier
// anywhere in the module — test files, commands and examples included —
// that resolves to the declaration outside the declaration itself (a
// type's own methods are part of it). Never listed: init, main and _; a
// method through which a type of the module implements an interface of
// the module or of a standard package the module imports (types.Implements
// over every such pair); embedded fields; the fields of a struct type
// that some composite literal builds by position.
func deadSurface(dir string, roots ...string) ([]deadDecl, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-test", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*listedPkg
	exports := map[string]string{} // standard import path → export data file
	var modPath string
	for dec := json.NewDecoder(out); ; {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, err
		}
		switch {
		case p.Error != nil:
			cmd.Wait()
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		case p.Standard:
			exports[p.ImportPath] = p.Export
		case p.Module != nil && p.Module.Main && !strings.HasSuffix(p.ImportPath, ".test"):
			modPath = p.Module.Path
			pkgs = append(pkgs, p)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}

	s := &surface{
		fset:    token.NewFileSet(),
		files:   map[string]*ast.File{},
		listed:  map[string]*listedPkg{},
		checked: map[string]*checkedPkg{},
		ours:    map[*types.Package]bool{},
		decls:   map[token.Pos]*decl{},
		tried:   map[implKey]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	for _, p := range pkgs {
		s.listed[p.ImportPath] = p
	}
	for _, p := range pkgs {
		if _, err := s.check(p.ImportPath); err != nil {
			return nil, err
		}
	}

	// Declarations: the base (non-test) build of each package under a root.
	for _, p := range pkgs {
		rel, err := filepath.Rel(dir, p.Dir)
		if err != nil || p.ForTest != "" || !slices.Contains(roots, strings.Split(filepath.ToSlash(rel), "/")[0]) {
			continue
		}
		c := s.checked[p.ImportPath]
		name := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, modPath), "/")
		for _, f := range c.files {
			s.collect(f, name, dir)
		}
	}
	// Uses, positional literals and interface satisfaction, in every build.
	for _, p := range pkgs {
		s.markUses(s.checked[p.ImportPath])
	}

	var unused []*decl
	for _, d := range s.decls {
		if !d.used {
			unused = append(unused, d)
		}
	}
	slices.SortFunc(unused, func(a, b *decl) int {
		return cmp.Or(strings.Compare(a.file, b.file), a.line-b.line, strings.Compare(a.name, b.name))
	})
	dead := make([]deadDecl, len(unused))
	for i, d := range unused {
		dead[i] = deadDecl{d.name, fmt.Sprintf("%s:%d", d.file, d.line)}
	}
	return dead, nil
}

// surface is deadSurface's state: every file parsed once, so a package's
// declarations sit at the same token.Pos in each build that includes it,
// and objects from different builds of one package match by position.
type surface struct {
	fset    *token.FileSet
	std     types.Importer
	files   map[string]*ast.File
	listed  map[string]*listedPkg
	checked map[string]*checkedPkg
	ours    map[*types.Package]bool
	decls   map[token.Pos]*decl // by the position of the declared identifier
	tried   map[implKey]bool
}

type checkedPkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// check type-checks the build ID (a package, or a test variant of one)
// after the builds it imports, resolving imports through the build's
// ImportMap as the go command does.
func (s *surface) check(id string) (*checkedPkg, error) {
	if c := s.checked[id]; c != nil {
		if c.pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", id)
		}
		return c, nil
	}
	c := &checkedPkg{}
	s.checked[id] = c
	p := s.listed[id]
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		f := s.files[path]
		if f == nil {
			var err error
			if f, err = parser.ParseFile(s.fset, path, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			s.files[path] = f
		}
		c.files = append(c.files, f)
	}
	var errs []error
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if to := p.ImportMap[path]; to != "" {
				path = to
			}
			if s.listed[path] == nil {
				return s.std.Import(path)
			}
			dep, err := s.check(path)
			if err != nil {
				return nil, err
			}
			return dep.pkg, nil
		}),
		Error: func(err error) { errs = append(errs, err) },
	}
	c.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	path, _, _ := strings.Cut(id, " ")
	pkg, _ := conf.Check(path, s.fset, c.files, c.info)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	c.pkg = pkg
	s.ours[pkg] = true
	return c, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// collect records the declarations of one non-test file of package name.
func (s *surface) collect(f *ast.File, name, dir string) {
	add := func(id *ast.Ident, qual string, extent ast.Node) *decl {
		pos := s.fset.Position(id.Pos())
		file, _ := filepath.Rel(dir, pos.Filename)
		d := &decl{name: name + "." + qual + id.Name, file: filepath.ToSlash(file), line: pos.Line}
		if extent != nil {
			d.extents = append(d.extents, [2]token.Pos{extent.Pos(), extent.End()})
		}
		s.decls[id.Pos()] = d
		return d
	}
	typeDecls := map[string]*decl{}
	var methods []*ast.FuncDecl
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			switch {
			case gd.Recv != nil:
				methods = append(methods, gd)
			case gd.Name.Name != "init" && gd.Name.Name != "main" && gd.Name.Name != "_":
				add(gd.Name, "", gd)
			}
		case *ast.GenDecl:
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.Name != "_" {
							add(id, "", spec)
						}
					}
				case *ast.TypeSpec:
					typeDecls[spec.Name.Name] = add(spec.Name, "", spec)
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, id := range field.Names { // embedded fields have none
							if id.IsExported() {
								add(id, spec.Name.Name+".", nil)
							}
						}
					}
				}
			}
		}
	}
	for _, fd := range methods {
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		switch x := recv.(type) {
		case *ast.IndexExpr:
			recv = x.X
		case *ast.IndexListExpr:
			recv = x.X
		}
		tname := recv.(*ast.Ident).Name
		if t := typeDecls[tname]; t != nil {
			t.extents = append(t.extents, [2]token.Pos{fd.Pos(), fd.End()})
		}
		if fd.Name.IsExported() {
			add(fd.Name, tname+".", fd)
		}
	}
}

// use marks the declaration of obj used from pos, unless pos lies inside
// the declaration itself.
func (s *surface) use(obj types.Object, pos token.Pos) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	d := s.decls[obj.Pos()]
	if d == nil || d.used {
		return
	}
	for _, e := range d.extents {
		if e[0] <= pos && pos < e[1] {
			return
		}
	}
	d.used = true
}

// markUses marks what one build uses: the objects its identifiers resolve
// to, the fields of the structs it builds by position, and the methods
// through which the module's types implement the interfaces it sees.
func (s *surface) markUses(c *checkedPkg) {
	for id, obj := range c.info.Uses {
		s.use(obj, id.Pos())
	}
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
				return true
			}
			if st, ok := c.info.Types[lit].Type.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					s.use(st.Field(i), token.NoPos)
				}
			}
			return true
		})
	}

	// The interfaces this build sees: every named one of the module
	// packages it reaches and of the standard packages those import, and
	// every interface type written in its own files; and the module's
	// named types it reaches, as candidates.
	var ifaces []*types.Interface
	var named []*types.Named
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			if n, ok := t.(*types.Named); !ok || n.TypeParams().Len() == 0 || n.TypeArgs().Len() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		ours := s.ours[p]
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || (!ours && !tn.Exported()) {
				continue
			}
			t := tn.Type()
			addIface(t)
			if n, ok := t.(*types.Named); ok && ours {
				named = append(named, n)
			}
		}
		if ours {
			for _, imp := range p.Imports() {
				visit(imp)
			}
		}
	}
	visit(c.pkg)
	for _, tv := range c.info.Types {
		if tv.IsType() {
			addIface(tv.Type)
		}
	}
	byFirst := map[string][]*types.Interface{}
	for _, it := range ifaces {
		first := it.Method(0).Name()
		byFirst[first] = append(byFirst[first], it)
	}

	for _, n := range named {
		var t types.Type = n
		if tps := n.TypeParams(); tps.Len() > 0 {
			args := make([]types.Type, tps.Len())
			for i := range args {
				args[i] = tps.At(i)
			}
			t, _ = types.Instantiate(nil, n, args, false)
		}
		if types.IsInterface(t) {
			continue
		}
		for _, ptr := range []bool{false, true} {
			v := t
			if ptr {
				v = types.NewPointer(t)
			}
			ms := types.NewMethodSet(v)
			for i := range ms.Len() {
				for _, it := range byFirst[ms.At(i).Obj().Name()] {
					key := implKey{n, ptr, it}
					if s.tried[key] {
						continue
					}
					s.tried[key] = true
					if !types.Implements(v, it) {
						continue
					}
					for j := range it.NumMethods() {
						m := it.Method(j)
						s.use(ms.Lookup(m.Pkg(), m.Name()).Obj(), token.NoPos)
					}
				}
			}
		}
	}
}

// implKey is one (type or pointer to it, interface) pair tried.
type implKey struct {
	n   *types.Named
	ptr bool
	it  *types.Interface
}
