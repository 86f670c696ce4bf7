// Command sketchlint runs the project's static-analysis suite
// (internal/lint) over the module: ten analyzers encoding SketchML's
// correctness invariants — the serialization/determinism checks
// (unseeded-hash, float-equality, unchecked-error, wire-endianness,
// panic-in-library), the concurrency/wire-safety checks (lock-held-io,
// goroutine-join, waitgroup-misuse, unbounded-wire-alloc), and the
// //lint:allow validator (pragma). Full-module runs additionally
// cross-check every //lint:allow directive (stale-allow). See DESIGN.md
// ("Verification & static analysis") for what each one enforces, the
// defect that earned it its place, and the tests that measure the
// invariants no analyzer models.
//
// Usage:
//
//	sketchlint [flags] [./... | dir ...]
//
// With no arguments (or "./...") every package in the module is checked.
// Individual directories may be named instead. Exit status is 1 when any
// finding is reported, 2 on a load or usage error.
//
// Flags:
//
//	-list            list the analyzers and exit
//	-json            emit a JSON report object (findings and
//	                 per-analyzer timings)
//	-github          additionally emit ::error workflow annotations so
//	                 findings surface inline on pull-request diffs
//	-stats           print per-analyzer findings and timings
//
// Findings can be suppressed — sparingly, with a justification — by a
// comment on the offending line or the line above:
//
//	//lint:allow panic-in-library unreachable: validated by caller
//
// A directive whose analyzer no longer fires on the covered line is
// itself a finding (stale-allow) on full-module runs: suppressions must
// die with the code they excused.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sketchml/internal/lint"
)

func main() {
	var opts options
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit a JSON report object")
	flag.BoolVar(&opts.github, "github", false, "also emit GitHub ::error workflow annotations")
	flag.BoolVar(&opts.stats, "stats", false, "print per-analyzer findings and timings")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sketchlint [-list] [-json] [-github] [-stats] [./... | dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return
	}
	if err := run(flag.Args(), opts); err != nil {
		fmt.Fprintln(os.Stderr, "sketchlint:", err)
		os.Exit(2)
	}
}

type options struct {
	jsonOut bool
	github  bool
	stats   bool
}

// finding is the JSON shape of one diagnostic. Paths are module-root
// relative so CI annotations resolve against the checkout.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// report is the -json output shape.
type report struct {
	Findings  []finding            `json:"findings"`
	Analyzers []lint.AnalyzerStats `json:"analyzers"`
}

func run(args []string, opts options) error {
	root, err := findModuleRoot()
	if err != nil {
		return err
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return err
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	fullModule := true
	for _, arg := range args {
		if arg != "./..." && arg != "..." {
			fullModule = false
		}
	}

	var pkgs []*lint.Package
	seen := make(map[string]bool)
	for _, arg := range args {
		loaded, err := load(loader, root, arg)
		if err != nil {
			return err
		}
		for _, p := range loaded {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	diags, stats := lint.RunWithStats(loader.Fset(), pkgs, lint.All(), lint.RunOptions{
		// Only a full-module run proves a suppression dead: on a run over
		// named directories an unfired directive may cover a package not
		// analyzed.
		CheckStaleAllows: fullModule,
	})

	rep := report{
		Findings:  toFindings(root, diags),
		Analyzers: stats.Analyzers,
	}

	if opts.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		for _, f := range rep.Findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
	}
	if opts.stats {
		printStats(rep)
	}
	if opts.github {
		for _, f := range rep.Findings {
			// https://docs.github.com/actions/reference/workflow-commands:
			// the message must be single-line; commas and colons in the
			// properties would break parsing but file paths contain neither.
			msg := strings.ReplaceAll(f.Message, "\n", " ")
			fmt.Printf("::error file=%s,line=%d,col=%d,title=sketchlint %s::%s\n",
				f.File, f.Line, f.Column, f.Analyzer, msg)
		}
	}
	if len(rep.Findings) > 0 {
		os.Exit(1)
	}
	return nil
}

func toFindings(root string, diags []lint.Diagnostic) []finding {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, finding{
			File:     relPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out
}

// relPath converts a diagnostic filename to root-relative slash form;
// paths outside root pass through unchanged.
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// printStats renders the per-analyzer table `make lint-stats` shows.
func printStats(rep report) {
	w := os.Stderr
	fmt.Fprintf(w, "%-22s %9s %9s\n", "analyzer", "findings", "millis")
	var totalFindings int
	var totalMillis int64
	for _, a := range rep.Analyzers {
		fmt.Fprintf(w, "%-22s %9d %9d\n", a.Name, a.Findings, a.Millis)
		totalFindings += a.Findings
		totalMillis += a.Millis
	}
	fmt.Fprintf(w, "%-22s %9d %9d\n", "total", totalFindings, totalMillis)
}

// load resolves one command-line argument to packages: "./..." (or the
// module root) loads everything; anything else is a single directory.
func load(loader *lint.Loader, root, arg string) ([]*lint.Package, error) {
	if arg == "./..." || arg == "..." {
		return loader.LoadAll()
	}
	dir, err := filepath.Abs(strings.TrimSuffix(arg, "/..."))
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("%s is outside module root %s", arg, root)
	}
	path := loader.ModulePath
	if rel != "." {
		path = loader.ModulePath + "/" + filepath.ToSlash(rel)
	}
	pkg, err := loader.LoadDir(dir, path)
	if err != nil {
		return nil, err
	}
	return []*lint.Package{pkg}, nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
