package invariants_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"analogdft/internal/invariants"
)

var update = flag.Bool("update", false, "rewrite the fixture expect.json goldens from current analyzer output")

// repoRoot is the repository root relative to this package directory.
const repoRoot = "../.."

// sharedLoader memoizes type-checked imports across tests: the source
// importer resolves each dependency once per process instead of once per
// fixture. The loader is not safe for concurrent use, so tests sharing it
// must not run in parallel.
var (
	loaderOnce sync.Once
	loader     *invariants.Loader
)

func sharedLoader() *invariants.Loader {
	loaderOnce.Do(func() { loader = invariants.NewLoader() })
	return loader
}

// manifest is the expect.json schema: the roles the fixture package
// assumes plus the golden diagnostics.
type manifest struct {
	Roles       []string                `json:"roles"`
	Diagnostics []invariants.Diagnostic `json:"diagnostics"`
}

func fixtureDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(repoRoot, "testdata", "invariants"))
	if err != nil {
		t.Fatalf("reading fixture root: %v", err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	return dirs
}

func loadFixture(t *testing.T, code string) (*invariants.Package, manifest) {
	t.Helper()
	dir := filepath.Join(repoRoot, "testdata", "invariants", code)
	data, err := os.ReadFile(filepath.Join(dir, "expect.json"))
	if err != nil {
		t.Fatalf("%s: %v", code, err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("%s: expect.json: %v", code, err)
	}
	roles, err := invariants.ParseRoles(m.Roles)
	if err != nil {
		t.Fatalf("%s: %v", code, err)
	}
	pkg, err := sharedLoader().LoadDir(dir, "testdata/invariants/"+code, roles)
	if err != nil {
		t.Fatalf("%s: %v", code, err)
	}
	return pkg, m
}

// TestFixtures checks every golden fixture: the analyzer must produce
// exactly the recorded diagnostics, every finding must carry the
// fixture's own code (seeded violations trigger their pass and no
// other), and at least one finding must fire.
func TestFixtures(t *testing.T) {
	for _, code := range fixtureDirs(t) {
		t.Run(code, func(t *testing.T) {
			pkg, m := loadFixture(t, code)
			rep, err := invariants.Analyze(repoRoot, []*invariants.Package{pkg}, invariants.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				m.Diagnostics = rep.Diagnostics
				data, err := json.MarshalIndent(m, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(repoRoot, "testdata", "invariants", code, "expect.json")
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if len(rep.Diagnostics) == 0 {
				t.Fatalf("fixture produced no diagnostics; the seeded violation no longer fires")
			}
			for _, d := range rep.Diagnostics {
				if d.Code != code {
					t.Errorf("fixture for %s triggered %s: %s", code, d.Code, d)
				}
			}
			if !*update && !reflect.DeepEqual(rep.Diagnostics, m.Diagnostics) {
				got, _ := json.MarshalIndent(rep.Diagnostics, "", "  ")
				want, _ := json.MarshalIndent(m.Diagnostics, "", "  ")
				t.Errorf("diagnostics mismatch (rerun with -update to regenerate)\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestFixtureCatalogComplete pins one fixture directory per registered
// pass code, so a new pass cannot land without its golden.
func TestFixtureCatalogComplete(t *testing.T) {
	have := make(map[string]bool)
	for _, code := range fixtureDirs(t) {
		if !invariants.KnownCode(code) {
			t.Errorf("fixture directory %s does not match a registered pass", code)
		}
		have[code] = true
	}
	for _, p := range invariants.Passes() {
		if !have[p.Code] {
			t.Errorf("pass %s [%s] has no fixture under testdata/invariants/", p.Code, p.Name)
		}
	}
}

// TestRepositoryIsClean is the self-clean gate: the analyzer finds
// nothing in the tree it lives in.
func TestRepositoryIsClean(t *testing.T) {
	pkgs, err := sharedLoader().LoadRepo(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadRepo found no packages")
	}
	rep, err := invariants.Analyze(repoRoot, pkgs, invariants.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diagnostics {
		t.Errorf("repository violates its own invariant: %s", d)
	}
}

// TestDeterministicAcrossLoadOrder loads the multi-file VI001 fixture
// under different file orders with independent loaders and requires
// byte-identical reports: analyzer output must not depend on directory
// iteration order or importer cache state.
func TestDeterministicAcrossLoadOrder(t *testing.T) {
	dir := filepath.Join(repoRoot, "testdata", "invariants", "VI001")
	orders := [][]string{
		{"fixture.go", "fixture2.go"},
		{"fixture2.go", "fixture.go"},
	}
	var reports [][]byte
	for _, names := range orders {
		l := invariants.NewLoader()
		pkg, err := l.LoadFiles(dir, "testdata/invariants/VI001", invariants.Roles{Internal: true}, names)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := invariants.Analyze(repoRoot, []*invariants.Package{pkg}, invariants.Options{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
	}
	if string(reports[0]) != string(reports[1]) {
		t.Errorf("report depends on file load order\nfirst:\n%s\nsecond:\n%s", reports[0], reports[1])
	}

	// Two runs over the same loaded package must agree too.
	pkg, _ := loadFixture(t, "VI001")
	a, err := invariants.Analyze(repoRoot, []*invariants.Package{pkg}, invariants.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := invariants.Analyze(repoRoot, []*invariants.Package{pkg}, invariants.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs over the same package disagree")
	}
}

// TestCodesFilter restricts a run to one pass and checks both the
// filtering and the unknown-code error path.
func TestCodesFilter(t *testing.T) {
	pkg, _ := loadFixture(t, "VI001")
	rep, err := invariants.Analyze(repoRoot, []*invariants.Package{pkg}, invariants.Options{Codes: []string{"VI002"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Codes) != 1 || rep.Codes[0] != "VI002" {
		t.Errorf("Codes = %v, want [VI002]", rep.Codes)
	}
	if !rep.Clean() {
		t.Errorf("VI002-only run over the VI001 fixture found %d diagnostics", len(rep.Diagnostics))
	}
	if _, err := invariants.Analyze(repoRoot, nil, invariants.Options{Codes: []string{"VI999"}}); err == nil {
		t.Error("unknown code VI999 did not error")
	}
}

// TestRolesForPath pins the role derivation, in particular that obs
// subpackages are ordinary internal packages (clock-gate exemption does
// not extend below internal/obs itself).
func TestRolesForPath(t *testing.T) {
	cases := []struct {
		rel  string
		want invariants.Roles
	}{
		{"internal/obs", invariants.Roles{Internal: true, Obs: true}},
		{"internal/obs/cliobs", invariants.Roles{Internal: true}},
		{"internal/obs/benchfmt", invariants.Roles{Internal: true}},
		{"internal/detect", invariants.Roles{Internal: true, Detect: true}},
		{"internal/jobs", invariants.Roles{Internal: true, Jobs: true}},
		{"internal/analysis", invariants.Roles{Internal: true, Analysis: true}},
		{"cmd/dftserved", invariants.Roles{Served: true}},
		{"cmd/analogdft", invariants.Roles{}},
	}
	for _, c := range cases {
		if got := invariants.RolesForPath(c.rel); got != c.want {
			t.Errorf("RolesForPath(%q) = %+v, want %+v", c.rel, got, c.want)
		}
	}
	if _, err := invariants.ParseRoles([]string{"edge"}); err == nil {
		t.Error(`ParseRoles accepted unknown role "edge"`)
	}
}

// TestPassCatalog pins the registry shape: nine passes in ascending
// code order with complete metadata, the retired codes left as holes.
func TestPassCatalog(t *testing.T) {
	passes := invariants.Passes()
	if len(passes) != 9 {
		t.Fatalf("registry has %d passes, want 9", len(passes))
	}
	for i, p := range passes {
		if p.Code == "" || p.Name == "" || p.Summary == "" || p.Rationale == "" || p.Scope == "" {
			t.Errorf("pass %d (%s) has incomplete metadata: %+v", i, p.Code, p)
		}
		if i > 0 && passes[i-1].Code >= p.Code {
			t.Errorf("pass codes out of order: %s before %s", passes[i-1].Code, p.Code)
		}
		if !invariants.KnownCode(p.Code) {
			t.Errorf("KnownCode(%s) = false for a registered pass", p.Code)
		}
	}
	for _, code := range []string{"VI003", "VI005", "VI011", "VI999"} {
		if invariants.KnownCode(code) {
			t.Errorf("KnownCode(%s) = true", code)
		}
	}
}
