package ascylib_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testPrefix matches the names go test runs: Test, Fuzz or Benchmark,
// then anything but a lower-case letter.
var testPrefix = regexp.MustCompile(`^(Test|Fuzz|Benchmark)([^a-z]|$)`)

// citedDocs are the documents whose cited test names must exist.
var citedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "benchmark/README.md"}

// TestCitedTestNamesExist: every test a document or a CI step names still
// exists, so deleting or renaming a test takes its references with it. A CI
// -run or -bench alternative that matches no test would make its step pass
// having run nothing.
//
// Only the top level of a -run path is checked: subtest names are built at
// run time (from the registry, say), so no parse of the source can list
// them.
func TestCitedTestNamesExist(t *testing.T) {
	decls := declaredTests(t)

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	cmds := goTestCommands(string(ci))
	if len(cmds) == 0 {
		t.Fatal("found no go test command in ci.yml")
	}
	for _, c := range cmds {
		names := decls.in(c.dirs)
		if len(names) == 0 {
			t.Errorf("ci.yml: %q selects no package with tests", c.line)
			continue
		}
		// As go test reads a pattern: a top-level "|" separates whole
		// alternatives, each a "/"-separated path of levels.
		for _, alt := range splitTopLevel(c.pattern, '|') {
			if alt == "^$" { // the idiom for "run no tests"
				continue
			}
			top := splitTopLevel(alt, '/')[0]
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("ci.yml: %s alternative %q: %v", c.flag, alt, err)
				continue
			}
			if !anyMatch(re, names, c.flag) {
				t.Errorf("ci.yml: %s alternative %q matches no test in %v (%q)", c.flag, alt, c.dirs, c.line)
			}
		}
	}

	all := map[string]bool{}
	for _, names := range decls.byDir {
		for n := range names {
			all[n] = true
		}
	}
	// The documents cite names in backticks, but any word shaped like a
	// test name counts: a name is a citation wherever it stands, and no
	// backtick pairing can go wrong.
	name := regexp.MustCompile(`\b(Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	for _, doc := range citedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range name.FindAllString(string(b), -1) {
			if !all[n] {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, n)
			}
		}
	}
}

// testDecls maps a directory (slash-separated, relative to the repository
// root, "" for the root) to the test, fuzz and benchmark functions its
// _test.go files declare. Directories holding a go.mod other than the
// root's are their own module, so ./... from the root does not reach them.
type testDecls struct {
	byDir   map[string]map[string]bool
	modules map[string]bool // directories with a go.mod
}

func declaredTests(t *testing.T) testDecls {
	t.Helper()
	d := testDecls{byDir: map[string]map[string]bool{}, modules: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		base := e.Name()
		if e.IsDir() {
			if p != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir == "." {
			dir = ""
		}
		if base == "go.mod" {
			d.modules[dir] = true
		}
		if !strings.HasSuffix(base, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !testPrefix.MatchString(fn.Name.Name) {
				continue
			}
			if d.byDir[dir] == nil {
				d.byDir[dir] = map[string]bool{}
			}
			d.byDir[dir][fn.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// in unions the names declared in the package directories that go test
// would build for these arguments ("" or "." the root, "x/..." a tree
// within x's module).
func (d testDecls) in(dirs []string) map[string]bool {
	out := map[string]bool{}
	add := func(dir string) {
		for n := range d.byDir[dir] {
			out[n] = true
		}
	}
	for _, arg := range dirs {
		arg = strings.TrimPrefix(path.Clean(arg), "./")
		if arg == "." {
			arg = ""
		}
		if arg != "..." && !strings.HasSuffix(arg, "/...") {
			add(arg)
			continue
		}
		root := strings.TrimSuffix(strings.TrimSuffix(arg, "..."), "/")
		for dir := range d.byDir {
			if within(dir, root) && d.moduleOf(dir) == d.moduleOf(root) {
				add(dir)
			}
		}
	}
	return out
}

func within(dir, root string) bool {
	return root == "" || dir == root || strings.HasPrefix(dir, root+"/")
}

// moduleOf is the nearest directory at or above dir holding a go.mod.
func (d testDecls) moduleOf(dir string) string {
	for {
		if d.modules[dir] || dir == "" {
			return dir
		}
		if i := strings.LastIndexByte(dir, '/'); i >= 0 {
			dir = dir[:i]
		} else {
			dir = ""
		}
	}
}

func anyMatch(re *regexp.Regexp, names map[string]bool, flag string) bool {
	for n := range names {
		isBench := strings.HasPrefix(n, "Benchmark")
		if (flag == "-bench") == isBench && re.MatchString(n) {
			return true
		}
	}
	return false
}

// goTest is one go test command of ci.yml: its -run or -bench pattern and
// the package directories it names, resolved against its -C directory.
type goTest struct {
	line, flag, pattern string
	dirs                []string
}

// goTestCommands finds each -run and -bench pattern in the go test
// commands of a workflow, joining backslash-continued lines first.
func goTestCommands(yml string) []goTest {
	yml = regexp.MustCompile(`\\\n\s*`).ReplaceAllString(yml, " ")
	var out []goTest
	for _, line := range strings.Split(yml, "\n") {
		i := strings.Index(line, "go test")
		if i < 0 {
			continue
		}
		words := shellWords(line[i+len("go test"):])
		var flags [][2]string
		var dirs []string
		base := ""
		for j := 0; j < len(words); j++ {
			w := words[j]
			switch {
			case w == "-C" && j+1 < len(words):
				j++
				base = words[j]
			case (w == "-run" || w == "-bench") && j+1 < len(words):
				j++
				flags = append(flags, [2]string{w, words[j]})
			case strings.HasPrefix(w, "-run=") || strings.HasPrefix(w, "-bench="):
				k := strings.IndexByte(w, '=')
				flags = append(flags, [2]string{w[:k], w[k+1:]})
			case w == "." || strings.HasPrefix(w, "./"):
				dirs = append(dirs, w)
			}
		}
		if len(dirs) == 0 {
			dirs = []string{"."}
		}
		for k, dir := range dirs {
			dirs[k] = path.Join(base, dir)
		}
		for _, f := range flags {
			out = append(out, goTest{line: strings.TrimSpace(line), flag: f[0], pattern: f[1], dirs: dirs})
		}
	}
	return out
}

// shellWords splits a command line into words, honouring single and double
// quotes, and stops at the first pipe, redirection or command separator.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'' || c == '"':
			j := strings.IndexByte(s[i+1:], c)
			if j < 0 {
				j = len(s) - i - 1
			}
			cur.WriteString(s[i+1 : i+1+j])
			i += j + 1
			inWord = true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case c == '|' || c == ';' || c == '&' || c == '>':
			if inWord && c != '>' {
				words = append(words, cur.String())
			}
			return words
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// splitTopLevel splits s at each sep outside brackets and parentheses,
// the rule go test uses for "|" and "/" in -run.
func splitTopLevel(s string, sep byte) []string {
	var out []string
	brackets, parens, start := 0, 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			i++
		case c == '[':
			brackets++
		case c == ']' && brackets > 0:
			brackets--
		case c == '(' && brackets == 0:
			parens++
		case c == ')' && brackets == 0:
			parens--
		case c == sep && brackets == 0 && parens == 0:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}
