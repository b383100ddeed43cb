package main_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the genielint binary TestMain builds from this package's source,
// so the tests never depend on a stale build and see its real exit code.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "genielint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	bin = filepath.Join(dir, "genielint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build genielint: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(2)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runGenielint runs the binary with flags against a fixture module and
// returns its combined output and exit code.
func runGenielint(t *testing.T, dir string, flags ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, append(flags, "-C", dir, "./...")...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	code := cmd.ProcessState.ExitCode()
	if err != nil && code <= 0 {
		t.Fatalf("genielint did not run: %v\n%s", err, buf.String())
	}
	return buf.String(), code
}

// lineOf finds the 1-based line of the first occurrence of marker in the
// fixture source, so the assertions track the fixture instead of
// hard-coding line numbers.
func lineOf(t *testing.T, path, marker string) int {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, ln := range strings.Split(string(src), "\n") {
		if strings.Contains(ln, marker) {
			return i + 1
		}
	}
	t.Fatalf("marker %q not in %s", marker, path)
	return 0
}

// TestGenielintBadModule is the end-to-end gate: over a module with known
// violations the binary must exit 1 and print each diagnostic positioned
// at the offending line with its analyzer tag.
func TestGenielintBadModule(t *testing.T) {
	dir := filepath.Join("testdata", "badmod")
	out, code := runGenielint(t, dir)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\noutput:\n%s", code, out)
	}
	wants := []struct {
		marker   string // source text on the line the diagnostic must point at
		analyzer string
	}{
		{"go func()", "goroleak"},
		{"mu.Lock()", "lockscope"},
	}
	for _, w := range wants {
		line := lineOf(t, filepath.Join(dir, "bad.go"), w.marker)
		pos := fmt.Sprintf("bad.go:%d:", line)
		found := false
		for _, ln := range strings.Split(out, "\n") {
			if strings.Contains(ln, pos) && strings.Contains(ln, "["+w.analyzer+"]") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no [%s] diagnostic at %s\noutput:\n%s", w.analyzer, pos, out)
		}
	}
}

// TestGenielintGoodModule: a clean module exits 0 and prints nothing.
func TestGenielintGoodModule(t *testing.T) {
	out, code := runGenielint(t, filepath.Join("testdata", "goodmod"))
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\noutput:\n%s", code, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Fatalf("clean run produced output:\n%s", out)
	}
}

// TestGenielintOnlyRejectsUnknown: an -only list naming an analyzer that
// does not exist (a typo, or one since retired) exits 2 and names every
// unknown entry instead of silently running the rest.
func TestGenielintOnlyRejectsUnknown(t *testing.T) {
	out, code := runGenielint(t, filepath.Join("testdata", "goodmod"), "-only", "lockscope,nosuch,labelcardinality")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\noutput:\n%s", code, out)
	}
	for _, name := range []string{"nosuch", "labelcardinality"} {
		if !strings.Contains(out, name) {
			t.Errorf("output does not name unknown analyzer %q:\n%s", name, out)
		}
	}
}
