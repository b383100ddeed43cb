package lint_test

import (
	"regexp"
	"testing"

	"cachegenie/internal/lint"
)

// The fixture harness mirrors x/tools' analysistest: each fixture package
// under testdata/src carries `// want `+"`regex`"+` comments on the lines
// where diagnostics are expected; the test fails on any unmatched want and
// any unexpected diagnostic.

var (
	wantRe    = regexp.MustCompile(`want\s+(.+)$`)
	wantTokRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

type wantDiag struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func runFixture(t *testing.T, a *lint.Analyzer, pkg string) {
	t.Helper()
	pkgs, err := lint.Load("testdata/src", "./"+pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want exactly 1", len(pkgs))
	}
	p := pkgs[0]
	diags, err := lint.Run(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	var wants []*wantDiag
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				for _, tok := range wantTokRe.FindAllString(m[1], -1) {
					re, err := regexp.Compile(tok[1 : len(tok)-1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, tok, err)
					}
					wants = append(wants, &wantDiag{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
		}
	}
}

func TestLockScopeFixture(t *testing.T)        { runFixture(t, lint.LockScope, "lockscope") }
func TestNetDeadlineFixture(t *testing.T)      { runFixture(t, lint.NetDeadline, "cacheproto") }
func TestNetDeadlineGobFixture(t *testing.T)   { runFixture(t, lint.NetDeadline, "dbproto") }
func TestObsNamingFixture(t *testing.T)        { runFixture(t, lint.ObsNaming, "obsfix") }
func TestLabelCardinalityFixture(t *testing.T) { runFixture(t, lint.ObsNaming, "labelcard") }
func TestNolintFixture(t *testing.T)           { runFixture(t, lint.LockScope, "nolintfix") }
func TestGoroLeakFixture(t *testing.T)         { runFixture(t, lint.GoroLeak, "goroleak") }
