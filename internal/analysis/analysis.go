// Package analysis is prodigy-lint: a static-analysis suite, written
// purely against the standard library (go/parser, go/ast, go/types,
// go/importer), that turns the repository's prose contracts into
// machine-checked ones (DESIGN.md §9, §14). Nine analyzers enforce the
// concurrency contract (statelessinfer, spawnsafe, lockguard), the
// hot-path memory discipline (hotalloc), the observability naming and
// cardinality rules (obsconventions), experiment reproducibility
// (seededrand, detorder), numeric hygiene (floateq) and reachability
// (deadcode).
//
// A finding can be suppressed at the offending line (same line or the
// line directly above) with an explanation:
//
//	//lint:ignore <analyzer> <reason>
//
// Directives naming an analyzer the suite does not know, or missing the
// reason, are themselves reported — a silencer that silences nothing it
// can name is a stale contract.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding, attributed to the analyzer that produced it.
// Suppressed marks findings silenced by a well-formed //lint:ignore
// directive: the text report drops them, the machine-readable report keeps
// them (a CI annotation pipeline wants to see what was waived, too).
type Diagnostic struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reporter records one finding at a position.
type Reporter func(pos token.Pos, format string, args ...interface{})

// Analyzer is one pluggable invariant checker. Run inspects the whole
// unit (analyzers are free to build cross-package indexes) and reports
// findings through report.
type Analyzer interface {
	Name() string
	Doc() string
	Run(u *Unit, report Reporter)
}

// directiveName is the comment prefix of a suppression directive.
const directiveName = "//lint:ignore"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos      token.Position
	analyzer string
	reason   string
}

// LintAll runs the analyzers over the unit, applies suppression
// directives, and returns every diagnostic sorted by position, suppressed
// ones marked. Directives naming unknown analyzers, missing a reason, or
// suppressing nothing are reported under the pseudo-analyzer "lint". The
// analyzers run concurrently — each is independent and reports into its
// own buffer — and the merged result is sorted by position, so the output
// is deterministic for any schedule.
func LintAll(u *Unit, analyzers ...Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	perAnalyzer := make([][]Diagnostic, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		i, a := i, a
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Run(u, func(pos token.Pos, format string, args ...interface{}) {
				perAnalyzer[i] = append(perAnalyzer[i], Diagnostic{
					Pos:      u.Fset.Position(pos),
					Analyzer: a.Name(),
					Message:  fmt.Sprintf(format, args...),
				})
			})
		}()
	}
	wg.Wait()
	var diags []Diagnostic
	for _, d := range perAnalyzer {
		diags = append(diags, d...)
	}

	directives := collectDirectives(u)
	// suppressed[file][line][analyzer]: a directive covers its own line and
	// the line directly below it (so it can sit above the offending
	// statement or trail it on the same line).
	suppressed := make(map[string]map[int]map[string]bool)
	mark := func(file string, line int, analyzer string) {
		if suppressed[file] == nil {
			suppressed[file] = make(map[int]map[string]bool)
		}
		if suppressed[file][line] == nil {
			suppressed[file][line] = make(map[string]bool)
		}
		suppressed[file][line][analyzer] = true
	}
	wellFormed := make([]ignoreDirective, 0, len(directives))
	for _, d := range directives {
		switch {
		case !known[d.analyzer]:
			diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "lint",
				Message: fmt.Sprintf("lint:ignore names unknown analyzer %q", d.analyzer)})
		case d.reason == "":
			diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "lint",
				Message: fmt.Sprintf("lint:ignore %s needs a reason", d.analyzer)})
		default:
			mark(d.pos.Filename, d.pos.Line, d.analyzer)
			mark(d.pos.Filename, d.pos.Line+1, d.analyzer)
			wellFormed = append(wellFormed, d)
		}
	}

	for i, d := range diags {
		if d.Analyzer != "lint" && suppressed[d.Pos.Filename][d.Pos.Line][d.Analyzer] {
			diags[i].Suppressed = true
		}
	}

	// Unused-suppression audit: a directive that silences zero diagnostics
	// is a stale waiver — the analyzer it apologizes to no longer objects,
	// so the inventory must shrink with it (DESIGN.md §14).
	for _, d := range wellFormed {
		used := false
		for _, diag := range diags {
			if diag.Suppressed && diag.Analyzer == d.analyzer &&
				diag.Pos.Filename == d.pos.Filename &&
				(diag.Pos.Line == d.pos.Line || diag.Pos.Line == d.pos.Line+1) {
				used = true
				break
			}
		}
		if !used {
			diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "lint",
				Message: fmt.Sprintf("lint:ignore %s suppresses no diagnostic; remove the stale directive", d.analyzer)})
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
	return diags
}

// collectDirectives parses every //lint:ignore comment in the unit.
func collectDirectives(u *Unit) []ignoreDirective {
	var out []ignoreDirective
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, directiveName)
					if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
						continue
					}
					fields := strings.Fields(rest)
					d := ignoreDirective{pos: u.Fset.Position(c.Pos())}
					if len(fields) > 0 {
						d.analyzer = fields[0]
					}
					if len(fields) > 1 {
						d.reason = strings.Join(fields[1:], " ")
					}
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// labelsafeDirective marks a function whose string results come from a
// closed, code-bounded vocabulary — obsconventions accepts its results as
// metric label values (see DESIGN.md §8 cardinality rules).
const labelsafeDirective = "//lint:labelsafe"

// DefaultAnalyzers returns the production-configured suite prodigy-lint
// runs: every analyzer, with the repository's roots and package scopes.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		&StatelessInfer{Roots: DefaultStatelessRoots()},
		&HotAlloc{Roots: DefaultHotPathRoots()},
		&ObsConventions{},
		&SeededRand{},
		&FloatEq{Packages: DefaultFloatEqPackages()},
		&SpawnSafe{},
		&LockGuard{},
		&DetOrder{Packages: DefaultDetOrderPackages()},
		&DeadCode{},
	}
}
