// Command pacebench is the benchmark harness CLI: it runs declarative
// suites (datasets × models × attack methods × fault profiles × codecs)
// against in-process worlds or a live fleet, appends every cell to a
// unified BENCH.json trajectory, and gates on regressions between two
// trajectories.
//
//	pacebench run -suite smoke -out BENCH.json
//	pacebench run -suite quick -target-url http://127.0.0.1:8650 -out BENCH.json
//	pacebench run -suite-file my-suite.json -out BENCH.json
//	pacebench -validate BENCH.json
//	pacebench -compare old.json new.json -tolerance 10%
//
// Exit codes: 0 success / gate passed, 1 regression or runtime failure,
// 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pace/internal/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "run" {
		runMain(os.Args[2:])
		return
	}
	gateMain(os.Args[1:])
}

// runMain is the `pacebench run` subcommand: execute a suite, append
// the records to the trajectory at -out.
func runMain(args []string) {
	fs := flag.NewFlagSet("pacebench run", flag.ExitOnError)
	var (
		suiteName = fs.String("suite", "smoke", "built-in suite: smoke, quick or capacity")
		suiteFile = fs.String("suite-file", "", "run a suite specification from this JSON file instead")
		targetURL = fs.String("target-url", "", "run attack/load cells against a live fleet (paced or pacerouter) at this base URL")
		authToken = fs.String("auth-token", "", "bearer token for a fleet with auth enabled")
		seed      = fs.Int64("seed", 0, "override the suite's seed (0 = keep)")
		workers   = fs.Int("workers", -1, "worker pool size: 0 = serial, -1 = all cores")
		out       = fs.String("out", "BENCH.json", "trajectory file to append records to")
		gitRev    = fs.String("git-rev", "", "git revision stamped on every record (default: git rev-parse --short HEAD)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	var (
		suite bench.Suite
		err   error
	)
	if *suiteFile != "" {
		suite, err = bench.LoadSuite(*suiteFile)
	} else {
		suite, err = bench.Builtin(*suiteName)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		os.Exit(2)
	}
	if *seed != 0 {
		suite.Seed = *seed
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	opts := bench.Options{
		TargetURL: *targetURL,
		AuthToken: *authToken,
		Workers:   *workers,
		GitRev:    resolveGitRev(*gitRev),
		When:      time.Now().UTC().Format(time.RFC3339),
		Log:       os.Stdout,
	}
	fmt.Printf("suite %s (seed %d, %d cells)%s\n", suite.Name, suite.Seed, len(suite.Cells),
		map[bool]string{true: " against " + *targetURL, false: " in-process"}[*targetURL != ""])
	recs, err := bench.RunSuite(ctx, suite, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		os.Exit(1)
	}
	if err := appendRecords(*out, recs); err != nil {
		fmt.Fprintln(os.Stderr, "pacebench:", err)
		os.Exit(1)
	}
	fmt.Printf("appended %d records to %s\n", len(recs), *out)
}

// gateMain is the default mode: -validate checks a trajectory, -compare
// gates new against old.
func gateMain(args []string) {
	fs := flag.NewFlagSet("pacebench", flag.ExitOnError)
	var (
		compare      = fs.Bool("compare", false, "compare two trajectories: pacebench -compare old.json new.json")
		tolerance    = fs.String("tolerance", "10%", "gate tolerance for both speed and efficacy (e.g. 10%, 0.25, none)")
		speedTol     = fs.String("speed-tolerance", "", "override the speed tolerance only")
		efficacyTol  = fs.String("efficacy-tolerance", "", "override the efficacy tolerance only")
		validatePath = fs.String("validate", "", "validate a trajectory file and exit")
	)
	positional := parseInterleaved(fs, args)

	switch {
	case *validatePath != "":
		t, err := bench.LoadTrajectory(*validatePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pacebench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: schema %d, %d records, %d cells\n",
			*validatePath, t.Schema, len(t.Records), len(t.Latest()))
	case *compare:
		if len(positional) != 2 {
			fmt.Fprintln(os.Stderr, "pacebench: -compare needs exactly two trajectory files (old new)")
			os.Exit(2)
		}
		tol, err := parseTolerances(*tolerance, *speedTol, *efficacyTol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pacebench:", err)
			os.Exit(2)
		}
		oldT, err := bench.LoadTrajectory(positional[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "pacebench:", err)
			os.Exit(1)
		}
		newT, err := bench.LoadTrajectory(positional[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "pacebench:", err)
			os.Exit(1)
		}
		rep := bench.Compare(oldT, newT, tol)
		rep.Print(os.Stdout)
		if rep.Regressed() {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "pacebench: nothing to do (use `pacebench run`, -compare or -validate)")
		os.Exit(2)
	}
}

// parseInterleaved parses flags that may be interleaved with positional
// arguments (`-compare old.json new.json -tolerance 10%`): whenever the
// flag package stops at a positional, collect it and resume parsing the
// remainder.
func parseInterleaved(fs *flag.FlagSet, args []string) []string {
	var positional []string
	for {
		fs.Parse(args) //nolint:errcheck // ExitOnError
		if fs.NArg() == 0 {
			return positional
		}
		positional = append(positional, fs.Arg(0))
		args = fs.Args()[1:]
	}
}

// appendRecords loads the trajectory (a missing file starts empty),
// appends and saves atomically.
func appendRecords(path string, recs []bench.Record) error {
	t, err := bench.LoadTrajectory(path)
	if err != nil {
		return err
	}
	if err := t.Append(recs...); err != nil {
		return err
	}
	return t.Save(path)
}

// parseTolerances resolves the gate slack: -tolerance sets both knobs,
// the per-axis flags override. "none" (or a negative number) disables
// an axis.
func parseTolerances(both, speed, efficacy string) (bench.Tolerance, error) {
	b, err := parseTolerance(both)
	if err != nil {
		return bench.Tolerance{}, err
	}
	tol := bench.Tolerance{Speed: b, Efficacy: b}
	if speed != "" {
		if tol.Speed, err = parseTolerance(speed); err != nil {
			return bench.Tolerance{}, err
		}
	}
	if efficacy != "" {
		if tol.Efficacy, err = parseTolerance(efficacy); err != nil {
			return bench.Tolerance{}, err
		}
	}
	return tol, nil
}

// parseTolerance accepts "10%", "0.1" or "none" (disabled).
func parseTolerance(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if strings.EqualFold(s, "none") {
		return -1, nil
	}
	frac := 1.0
	if strings.HasSuffix(s, "%") {
		s = strings.TrimSuffix(s, "%")
		frac = 0.01
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid tolerance %q (want e.g. 10%%, 0.1 or none)", s)
	}
	return v * frac, nil
}

// resolveGitRev fills the provenance stamp from git when not given.
func resolveGitRev(explicit string) string {
	if explicit != "" {
		return explicit
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
