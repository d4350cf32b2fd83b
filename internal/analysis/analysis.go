package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker: a name, a one-line doc
// string, and a Run function invoked once per analyzed package unit.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// NonTestOnly restricts the pass to non-_test.go files. The
	// type-check unit still includes test files so type information is
	// complete; only Pass.Files is filtered.
	NonTestOnly bool
	// Run reports diagnostics for one package unit through pass.Report.
	Run func(pass *Pass) error
}

// A Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	// Pos is the resolved file:line:col of the finding.
	Pos token.Position
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message describes the violation.
	Message string
}

// String renders the diagnostic in the conventional
// file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package unit.
type Pass struct {
	// Fset maps token.Pos values in Files to source positions.
	Fset *token.FileSet
	// Files are the syntax trees the analyzer inspects (already
	// filtered when the analyzer is NonTestOnly).
	Files []*ast.File
	// PkgName is the package's declared name.
	PkgName string
	// PkgPath is the package's import path. Testdata packages loaded
	// outside a module use their directory base name.
	PkgPath string
	// Types is the type-checked package, or nil when type-checking
	// failed outright; analyzers must tolerate nil.
	Types *types.Package
	// TypesInfo holds use/def/type resolution for the unit. Non-nil,
	// but sparsely populated when the unit had type errors.
	TypesInfo *types.Info

	analyzer   *Analyzer
	report     func(Diagnostic)
	directives map[string]map[int]map[string]bool // file -> line -> directive
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether the site at pos is covered by a
// //causalgc:allow-<name> directive: either an end-of-line comment on
// the same line, or a full-line comment on the line immediately above.
// Directives mark audited exceptions; every use should carry a
// justification after the directive word.
func (p *Pass) Allowed(pos token.Pos, name string) bool {
	if p.directives == nil {
		p.directives = map[string]map[int]map[string]bool{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					word := strings.TrimPrefix(text, directivePrefix)
					if i := strings.IndexAny(word, " \t"); i >= 0 {
						word = word[:i]
					}
					cp := p.Fset.Position(c.Pos())
					lines := p.directives[cp.Filename]
					if lines == nil {
						lines = map[int]map[string]bool{}
						p.directives[cp.Filename] = lines
					}
					// The directive covers its own line (end-of-line
					// form) and the next line (comment-above form).
					for _, ln := range []int{cp.Line, cp.Line + 1} {
						if lines[ln] == nil {
							lines[ln] = map[string]bool{}
						}
						lines[ln][word] = true
					}
				}
			}
		}
	}
	dp := p.Fset.Position(pos)
	return p.directives[dp.Filename][dp.Line][name]
}

// directivePrefix starts every audited-exception comment:
// //causalgc:allow-wallclock, //causalgc:allow-locked-call, ...
const directivePrefix = "causalgc:allow-"

// Run applies each analyzer to each loaded package unit and returns
// the combined diagnostics sorted by position.
func Run(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, u := range units {
		for _, a := range analyzers {
			files := u.Files
			if a.NonTestOnly {
				files = nil
				for _, f := range u.Files {
					if !strings.HasSuffix(u.Filename(f), "_test.go") {
						files = append(files, f)
					}
				}
			}
			if len(files) == 0 {
				continue
			}
			pass := &Pass{
				Fset:      u.Fset,
				Files:     files,
				PkgName:   u.Name,
				PkgPath:   u.Path,
				Types:     u.Types,
				TypesInfo: u.Info,
				analyzer:  a,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", u.Path, a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
