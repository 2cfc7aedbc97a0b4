package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sharedLoader builds one Loader for all fixture tests: the go list
// -export pass is the expensive part, and fixtures are memoized by
// import path.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// loadFixtures loads testdata packages in order under the given import
// paths (order matters: a fixture package must load before its
// importers).
func loadFixtures(t *testing.T, pkgs ...[2]string) *Unit {
	t.Helper()
	l := fixtureLoader(t)
	u := &Unit{Fset: l.Fset}
	for _, pd := range pkgs {
		p, err := l.LoadDir(filepath.Join("testdata", "src", filepath.FromSlash(pd[1])), pd[0])
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pd[1], err)
		}
		u.Pkgs = append(u.Pkgs, p)
	}
	return u
}

// Lint is LintAll without the suppressed diagnostics: what the fixture
// tests compare against their //want markers.
func Lint(u *Unit, analyzers ...Analyzer) []Diagnostic {
	all := LintAll(u, analyzers...)
	out := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// wantRE matches expectation markers embedded in fixtures: //want:<analyzer>
var wantRE = regexp.MustCompile(`//want:([a-z]+)`)

type wantMarker struct {
	file     string
	line     int
	analyzer string
}

func collectMarkers(u *Unit) []wantMarker {
	var out []wantMarker
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := u.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						out = append(out, wantMarker{file: pos.Filename, line: pos.Line, analyzer: m[1]})
					}
				}
			}
		}
	}
	return out
}

// checkAgainstMarkers asserts an exact correspondence between produced
// diagnostics and //want markers: every diagnostic needs a marker on its
// line, every marker needs at least one diagnostic.
func checkAgainstMarkers(t *testing.T, u *Unit, diags []Diagnostic) {
	t.Helper()
	markers := collectMarkers(u)
	matched := make([]bool, len(markers))
	for _, d := range diags {
		found := false
		for i, m := range markers {
			if m.file == d.Pos.Filename && m.line == d.Pos.Line && m.analyzer == d.Analyzer {
				matched[i] = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, m := range markers {
		if !matched[i] {
			t.Errorf("%s:%d: want a %s diagnostic, got none", m.file, m.line, m.analyzer)
		}
	}
}

func TestStatelessInfer(t *testing.T) {
	u := loadFixtures(t, [2]string{"fixture/stateless", "stateless"})
	diags := Lint(u, &StatelessInfer{Roots: DefaultStatelessRoots()})
	checkAgainstMarkers(t, u, diags)
}

func TestHotAlloc(t *testing.T) {
	u := loadFixtures(t,
		[2]string{"fixture/hotalloc/mat", "hotalloc/mat"},
		[2]string{"fixture/hotalloc/model", "hotalloc/model"},
		[2]string{"fixture/hotalloc/feat", "hotalloc/feat"},
	)
	diags := Lint(u, &HotAlloc{Roots: DefaultHotPathRoots(), MatPath: "fixture/hotalloc/mat"})
	checkAgainstMarkers(t, u, diags)
}

func TestObsConventions(t *testing.T) {
	u := loadFixtures(t,
		[2]string{"fixture/obslib", "obslib"},
		[2]string{"fixture/obsfix", "obsfix"},
	)
	diags := Lint(u, &ObsConventions{})
	checkAgainstMarkers(t, u, diags)
}

func TestSeededRand(t *testing.T) {
	u := loadFixtures(t, [2]string{"fixture/rand", "rand"})
	diags := Lint(u, &SeededRand{})
	checkAgainstMarkers(t, u, diags)
}

func TestFloatEq(t *testing.T) {
	// nn loads inside the default package scope, util outside it: the
	// util comparison must not be flagged even though it would match.
	u := loadFixtures(t,
		[2]string{"fixture/internal/nn", "floateq/nn"},
		[2]string{"fixture/internal/util", "floateq/util"},
	)
	diags := Lint(u, &FloatEq{Packages: DefaultFloatEqPackages()})
	checkAgainstMarkers(t, u, diags)
}

func TestSpawnSafe(t *testing.T) {
	u := loadFixtures(t, [2]string{"fixture/spawnsafe", "spawnsafe"})
	diags := Lint(u, &SpawnSafe{})
	checkAgainstMarkers(t, u, diags)
}

func TestLockGuard(t *testing.T) {
	u := loadFixtures(t, [2]string{"fixture/lockguard", "lockguard"})
	diags := Lint(u, &LockGuard{})
	checkAgainstMarkers(t, u, diags)
}

func TestDetOrder(t *testing.T) {
	// nn loads inside the contract-package scope, util outside it: the
	// util file repeats the violations and must stay silent.
	u := loadFixtures(t,
		[2]string{"fixture/det/internal/nn", "detorder/nn"},
		[2]string{"fixture/det/internal/util", "detorder/util"},
	)
	diags := Lint(u, &DetOrder{Packages: DefaultDetOrderPackages()})
	checkAgainstMarkers(t, u, diags)
}

// TestDeadCode checks the reachability rules on a fixture binary: a
// function only its _test.go calls and methods no interface names are
// reported; interface dispatch, method values, init-time registries,
// generic instances, package-level var initializers and a suppression
// keep everything else quiet.
func TestDeadCode(t *testing.T) {
	u := loadFixtures(t, [2]string{"fixture/deadcode", "deadcode"})
	diags := Lint(u, &DeadCode{})
	checkAgainstMarkers(t, u, diags)
}

// TestSuppression pins the exact output of the suppress fixture with a
// golden file: well-formed directives silence their line, a reasonless
// directive and an unknown-analyzer directive are themselves findings.
func TestSuppression(t *testing.T) {
	u := loadFixtures(t, [2]string{"fixture/suppress", "suppress"})
	diags := Lint(u, &FloatEq{})

	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	got := b.String()

	golden := filepath.Join("testdata", "suppress.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("suppress fixture diagnostics diverge from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Belt and braces on the properties the golden encodes.
	for _, must := range []string{"needs a reason", "unknown analyzer \"floatteq\""} {
		if !strings.Contains(got, must) {
			t.Errorf("output missing %q", must)
		}
	}
	if n := strings.Count(got, "[floateq]"); n != 2 {
		t.Errorf("want exactly 2 surviving floateq findings (Loud, BadDirective), got %d", n)
	}
}

// TestDefaultRootsResolve fails when a default root spec names no function
// in the production module. resolveRoots drops such a spec silently, so a
// deleted or renamed entry point would otherwise shrink the coverage of
// statelessinfer and hotalloc without a trace.
func TestDefaultRootsResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	u, err := fixtureLoader(t).LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	g := newCallGraph(u)
	// DefaultHotPathRoots extends DefaultStatelessRoots, so this covers both.
	for _, spec := range DefaultHotPathRoots() {
		if len(g.resolveRoots([]RootSpec{spec})) == 0 {
			t.Errorf("{%s, %s} resolves to no function in the module", spec.Type, spec.Method)
		}
	}
}

// TestModuleClean runs the full default suite over the real module — the
// same check `make lint` gates on.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	l := fixtureLoader(t)
	u, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	diags := Lint(u, DefaultAnalyzers()...)
	for _, d := range diags {
		t.Errorf("module not lint-clean: %s", d)
	}
}
