// Package frozenwrite guards the repo's frozen data structures: values
// documented immutable after construction (a CSR-backed graph.Graph,
// the run-shared RunBinder substrates) whose aliasing discipline the
// whole memory model leans on — a frozen graph's adjacency rows alias
// one shared arena, and a run substrate is read by every replica of the
// run.
//
// The contract is declared in the source: a type whose doc comment
// carries
//
//	//bccvet:frozen
//
// is frozen, and only functions annotated
//
//	//bccvet:thaws TypeName[,TypeName...]
//
// may write its fields (directly, or through an element of a field).
// Any other assignment, increment or decrement targeting a field of a
// frozen type is reported. Enforcement is per-package — the frozen
// types keep their fields unexported, so the compiler already stops
// other packages; this analyzer stops the defining package itself.
package frozenwrite

import (
	"go/ast"
	"go/types"
	"strings"

	"bcclique/internal/analysis"
)

// Analyzer is the bccvet entry point.
var Analyzer = &analysis.Analyzer{
	Name: "frozenwrite",
	Doc:  "fields of //bccvet:frozen types may only be written by //bccvet:thaws functions",
	Run:  run,
}

const (
	frozenDirective = "bccvet:frozen"
	thawsDirective  = "bccvet:thaws"
)

func run(pass *analysis.Pass) (interface{}, error) {
	frozen := frozenTypes(pass)
	if len(frozen) == 0 {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			thaws := thawedTypes(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						checkWrite(pass, lhs, frozen, thaws, fd)
					}
				case *ast.IncDecStmt:
					checkWrite(pass, n.X, frozen, thaws, fd)
				}
				return true
			})
		}
	}
	return nil, nil
}

// frozenTypes collects the names of types in this package declared
// //bccvet:frozen.
func frozenTypes(pass *analysis.Pass) map[string]bool {
	out := make(map[string]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
					if hasDirective(doc, frozenDirective) {
						out[ts.Name.Name] = true
					}
				}
			}
		}
	}
	return out
}

// thawedTypes returns the set of frozen type names fd is allowed to
// write, from its //bccvet:thaws annotation.
func thawedTypes(fd *ast.FuncDecl) map[string]bool {
	out := make(map[string]bool)
	if fd.Doc == nil {
		return out
	}
	for _, c := range fd.Doc.List {
		text, ok := strings.CutPrefix(c.Text, "//"+thawsDirective)
		if !ok {
			continue
		}
		for _, name := range strings.FieldsFunc(text, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		}) {
			out[name] = true
		}
	}
	return out
}

// checkWrite reports lhs if it writes (possibly through index
// expressions) a field of a frozen type outside a thaw site.
func checkWrite(pass *analysis.Pass, lhs ast.Expr, frozen, thaws map[string]bool, fd *ast.FuncDecl) {
	// Walk down through index/star expressions to the selector:
	// g.adj[v][i] = x writes through field adj of g.
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
			continue
		case *ast.StarExpr:
			lhs = e.X
			continue
		case *ast.SliceExpr:
			lhs = e.X
			continue
		}
		break
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return
	}
	t := selection.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	name := named.Obj().Name()
	if !frozen[name] || named.Obj().Pkg() != pass.Pkg {
		return
	}
	if thaws[name] {
		return
	}
	pass.Reportf(sel.Pos(),
		"write to field %s of frozen type %s outside a //bccvet:thaws %s site",
		sel.Sel.Name, name, name)
}

// hasDirective reports whether the comment group contains the
// directive at a line start.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//"+directive) {
			return true
		}
	}
	return false
}
