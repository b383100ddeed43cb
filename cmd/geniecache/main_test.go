package main_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cachegenie/internal/cacheproto"
)

// bin is the geniecache binary TestMain builds from this package's source,
// so the test drives the real process: its flags, its output and its exit
// code.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "geniecache-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	bin = filepath.Join(dir, "geniecache")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build geniecache: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(2)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestTierServesAndShutsDownGracefully launches a two-node tier on
// kernel-picked ports, round-trips a set/get on each node over a pool, and
// checks that SIGTERM takes the graceful path: exit 0 and one stats line
// per node.
func TestTierServesAndShutsDownGracefully(t *testing.T) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-nodes", "2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waited := false
	t.Cleanup(func() {
		if !waited {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	// The tier prints one line per node, then the ready line naming them.
	lines := bufio.NewScanner(stdout)
	var addrs []string
	for addrs == nil && lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "cache tier ready: -cache-addrs "); ok {
			addrs = strings.Split(rest, ",")
		}
	}
	if len(addrs) != 2 {
		t.Fatalf("ready line names %q, want 2 addresses (stderr: %s)", addrs, stderr.String())
	}

	for i, addr := range addrs {
		p := cacheproto.NewPool(addr, 1)
		key, want := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		p.Set(key, []byte(want), 0)
		got, ok := p.Get(key)
		_ = p.Close()
		if !ok || string(got) != want {
			t.Fatalf("node %d (%s): get %q = %q, %v; want %q", i, addr, key, got, ok, want)
		}
	}

	// Read the rest of the output through the same scanner, then reap the
	// process; a hang past the deadline kills it.
	type exit struct {
		out string
		err error
	}
	done := make(chan exit, 1)
	waited = true
	go func() {
		var out strings.Builder
		for lines.Scan() {
			out.WriteString(lines.Text() + "\n")
		}
		done <- exit{out.String(), cmd.Wait()}
	}()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var e exit
	select {
	case e = <-done:
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("geniecache did not exit within 10s of SIGTERM")
	}
	if e.err != nil {
		t.Fatalf("exit after SIGTERM: %v (stderr: %s)", e.err, stderr.String())
	}
	for i, addr := range addrs {
		line := fmt.Sprintf("node %d (%s): 1 items,", i, addr)
		if n := strings.Count(e.out, line); n != 1 {
			t.Fatalf("shutdown output has %d lines starting %q, want 1:\n%s", n, line, e.out)
		}
	}
}
