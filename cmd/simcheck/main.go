// Command simcheck runs the repository's static-analysis suite: the
// determinism, maporder, exhaustive, nogoroutine, lifetime and noalloc
// analyzers over the whole module, and (with -cdg) the channel-dependency-
// graph verification of routing deadlock freedom.
//
// Usage:
//
//	simcheck ./...              # run the code-layer analyzers on the module
//	simcheck <dir> [dir...]     # analyze specific package directories
//	simcheck -list              # print the registered analyzers
//	simcheck -enable lifetime,noalloc ./...   # run only the named analyzers
//	simcheck -disable exhaustive ./...        # run all but the named ones
//	simcheck -cdg -mesh 8       # verify CDG acyclicity on meshes up to 8x8
//
// Unknown analyzer names in -enable or -disable are an error (exit nonzero).
// Note the lifetime analyzer resolves //simcheck:pool annotations only
// within the loaded package set: module-wide runs see every pool API, while
// a single-directory run misses acquire/release/borrow functions declared
// in packages outside it.
//
// With "./..." (or no arguments) the analyzers cover every module package
// under the production scoping: the determinism and nogoroutine rules apply
// only to sim-core packages. Explicit directory arguments analyze just
// those packages with every rule in force — pointing simcheck at a package
// is an assertion that it should satisfy the full discipline, which is how
// the testdata fixtures are checked from the command line.
//
// Any analyzer finding or a cyclic dependency graph exits nonzero; findings
// print as file:line: rule: message. See README "Static analysis".
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cdg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simcheck: ")
	var (
		cdgOnly = flag.Bool("cdg", false, "verify channel-dependency-graph acyclicity instead of running the code analyzers")
		mesh    = flag.Int("mesh", 8, "largest k for the k x k meshes the CDG verifier enumerates")
		verbose = flag.Bool("v", false, "list per-configuration CDG statistics")
		list    = flag.Bool("list", false, "print the registered analyzers and exit")
		enable  = flag.String("enable", "", "comma-separated analyzer names to run (default: all registered)")
		disable = flag.String("disable", "", "comma-separated analyzer names to skip")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.DefaultAnalyzers() {
			fmt.Println(a.Name())
		}
		return
	}
	if *cdgOnly {
		os.Exit(runCDG(*mesh, *verbose))
	}
	os.Exit(runAnalyzers(flag.Args(), *enable, *disable))
}

// selectAnalyzers filters the registered set by the -enable and -disable
// flag values; naming an unregistered analyzer is an error.
func selectAnalyzers(registered []analysis.Analyzer, enable, disable string) ([]analysis.Analyzer, error) {
	byName := map[string]analysis.Analyzer{}
	for _, a := range registered {
		byName[a.Name()] = a
	}
	selected := registered
	if enable != "" {
		selected = nil
		for _, name := range strings.Split(enable, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("unknown analyzer %q in -enable (run simcheck -list)", name)
			}
			selected = append(selected, a)
		}
	}
	if disable != "" {
		drop := map[string]bool{}
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if _, ok := byName[name]; !ok {
				return nil, fmt.Errorf("unknown analyzer %q in -disable (run simcheck -list)", name)
			}
			drop[name] = true
		}
		kept := selected[:0:0]
		for _, a := range selected {
			if !drop[a.Name()] {
				kept = append(kept, a)
			}
		}
		selected = kept
	}
	return selected, nil
}

// runAnalyzers loads and checks the requested packages: the whole module
// for "./..."-style patterns (or no arguments), or exactly the directories
// named on the command line.
func runAnalyzers(args []string, enable, disable string) int {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		log.Fatal(err)
	}
	var dirs []string
	for _, a := range args {
		if !strings.HasSuffix(a, "...") {
			dirs = append(dirs, a)
		}
	}
	var pkgs []*analysis.Package
	var analyzers []analysis.Analyzer
	if len(dirs) == 0 {
		pkgs, err = loader.LoadModule()
		if err != nil {
			log.Fatal(err)
		}
		analyzers = analysis.DefaultAnalyzers()
	} else {
		for _, dir := range dirs {
			pkg, err := loader.LoadDir(dir, importPathFor(loader, dir))
			if err != nil {
				log.Fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
		// An explicitly named package is held to the full discipline.
		all := func(string) bool { return true }
		analyzers = []analysis.Analyzer{
			&analysis.Determinism{SimCore: all},
			&analysis.MapOrder{},
			&analysis.Exhaustive{},
			&analysis.NoGoroutine{SimCore: all},
			&analysis.Lifetime{},
			&analysis.NoAlloc{},
		}
	}
	analyzers, err = selectAnalyzers(analyzers, enable, disable)
	if err != nil {
		log.Fatal(err)
	}
	diags := analysis.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simcheck: %d finding(s)\n", len(diags))
		return 1
	}
	fmt.Printf("simcheck: %d package(s) clean\n", len(pkgs))
	return 0
}

// importPathFor maps a directory to the import path it is analyzed under:
// its module path when the directory sits inside the module tree, or a
// synthetic path otherwise.
func importPathFor(l *analysis.Loader, dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		if rel, err := filepath.Rel(l.ModuleRoot, abs); err == nil && rel != ".." && !strings.HasPrefix(rel, "../") {
			if rel == "." {
				return l.ModulePath
			}
			return l.ModulePath + "/" + filepath.ToSlash(rel)
		}
	}
	return "simcheck.invalid/" + filepath.Base(dir)
}

// runCDG verifies Dally-Seitz acyclicity of the channel dependency graph
// for every base routing scheme, on both virtual networks, for every mesh
// from 2x2 up to mesh x mesh.
func runCDG(mesh int, verbose bool) int {
	results := cdg.VerifyAll(mesh)
	bad := 0
	for _, r := range results {
		if verbose || !r.OK() {
			fmt.Println(r)
		}
		if !r.OK() {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "simcheck: %d failing channel-dependency-graph configuration(s)\n", bad)
		return 1
	}
	fmt.Printf("simcheck: channel dependency graph acyclic for %d configuration(s) (meshes up to %dx%d, base routings with consumption channels and i-ack buffers)\n",
		len(results), mesh, mesh)
	return 0
}
