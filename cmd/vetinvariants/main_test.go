package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tempRepo builds a minimal analyzable tree: one internal package with a
// seeded VI001 violation (a direct time.Now read).
func tempRepo(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "x")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package x

import "time"

func Stamp() time.Time { return time.Now() }
`
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListCatalog(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, want := range []string{"VI001", "VI006", "VI010", "VI012", "single-clock-source", "joined-goroutines"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
	for _, retired := range []string{"VI003", "VI005", "VI011"} {
		if strings.Contains(out, retired) {
			t.Errorf("-list output names retired pass %s", retired)
		}
	}
}

func TestUnknownCodeRejectedBeforeLoad(t *testing.T) {
	// The bogus root would fail to load; the code check must fire first.
	// Retired codes are unknown codes.
	for _, bad := range []string{"VI999", "VI003", "VI005", "VI011"} {
		code, _, stderr := runCLI(t, "-codes", bad, "/nonexistent")
		if code != 2 {
			t.Errorf("-codes %s: exit %d, want 2", bad, code)
		}
		if !strings.Contains(stderr, bad) {
			t.Errorf("-codes %s: stderr does not name the unknown code: %q", bad, stderr)
		}
	}
}

func TestMissingRootExitsTwo(t *testing.T) {
	code, _, _ := runCLI(t, "/nonexistent")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestTooManyArgsExitsTwo(t *testing.T) {
	code, _, _ := runCLI(t, "a", "b")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestFindingsExitOne(t *testing.T) {
	root := tempRepo(t)
	code, out, stderr := runCLI(t, root)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stdout %q stderr %q)", code, out, stderr)
	}
	if !strings.Contains(out, "VI001") || !strings.Contains(out, "internal/x/x.go") {
		t.Errorf("text output missing the finding: %q", out)
	}
	if !strings.Contains(stderr, "1 invariant violation(s)") {
		t.Errorf("stderr missing the violation count: %q", stderr)
	}
}

func TestCodesFilterSkipsOtherPasses(t *testing.T) {
	root := tempRepo(t)
	// The seeded violation is VI001; a VI002-only run must come back clean.
	code, out, _ := runCLI(t, "-codes", "VI002", root)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (stdout %q)", code, out)
	}
	if !strings.Contains(out, "clean") {
		t.Errorf("expected clean verdict, got %q", out)
	}
}

func TestJSONReportToFile(t *testing.T) {
	root := tempRepo(t)
	path := filepath.Join(t.TempDir(), "report.json")
	code, out, stderr := runCLI(t, "-json", "-o", path, root)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if out != "" {
		t.Errorf("stdout should be empty with -o, got %q", out)
	}
	// With the report routed to a file, findings are echoed to stderr for
	// the CI log.
	if !strings.Contains(stderr, "VI001") {
		t.Errorf("stderr echo missing the finding: %q", stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Diagnostics []struct {
			Code string `json:"code"`
			File string `json:"file"`
			Line int    `json:"line"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Code != "VI001" || rep.Diagnostics[0].Line == 0 {
		t.Errorf("unexpected diagnostics: %+v", rep.Diagnostics)
	}
}

// TestRetiredBaselineFlagsExitTwo: the baseline allowlist is gone, so
// -baseline and -write-baseline are undefined flags (usage error).
func TestRetiredBaselineFlagsExitTwo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	for _, flag := range []string{"-baseline", "-write-baseline"} {
		code, _, stderr := runCLI(t, flag, path, tempRepo(t))
		if code != 2 {
			t.Errorf("%s: exit %d, want 2", flag, code)
		}
		if !strings.Contains(stderr, "flag provided but not defined: "+flag) {
			t.Errorf("%s: stderr %q does not name the undefined flag", flag, stderr)
		}
	}
}
