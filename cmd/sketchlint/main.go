// Command sketchlint runs the project's static-analysis suite
// (internal/lint) over the module rooted at the working directory: every
// analyzer of lint.All(), then the stale-allow check on every //lint:allow
// directive. It prints one "file:line:col: analyzer: message" line per
// finding, the file relative to the module root, and exits 1 on findings, 2 on a load error. It takes no flags and
// no arguments. TestRepoIsClean runs the same suite inside `go test ./...`,
// which is the gate; see DESIGN.md "Verification & static analysis".
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"sketchml/internal/lint"
)

func main() {
	n, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchlint:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}

// run lints the module and prints its findings, returning how many.
func run() (int, error) {
	if len(os.Args) > 1 {
		return 0, fmt.Errorf("takes no arguments; run it from the module root")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		return 0, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return 0, err
	}
	diags := lint.Run(loader.Fset(), pkgs, lint.All(), true)
	for _, d := range diags {
		if rel, err := filepath.Rel(loader.Root, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		fmt.Println(d)
	}
	return len(diags), nil
}
