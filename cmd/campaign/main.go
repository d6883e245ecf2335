// Command campaign runs declarative scenario campaigns: a YAML/JSON spec
// (see internal/dsl and README "Scenario campaigns") is compiled into the
// cross-product of scenario variants, seeds and schemes, simulated over a
// worker pool with checkpoint/resume, and reduced to deterministic CSV and
// JSON artifacts.
//
// Usage:
//
//	campaign run spec.yaml [-workers N] [-shards N] [-collapse auto|off] [-out dir] [-resume] [-q]
//	campaign check spec.yaml
//
// `run` executes the campaign. Progress is checkpointed to
// <out>/manifest.jsonl after every completed cell; re-running with
// -resume skips finished cells and still writes artifacts byte-identical
// to an uninterrupted run. `check` validates the spec and prints the cell
// plan without simulating anything.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"insomnia/internal/campaign"
	"insomnia/internal/cli"
	"insomnia/internal/dsl"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  campaign run spec.yaml [-workers N] [-shards N] [-collapse auto|off] [-out dir] [-resume] [-q]
  campaign check spec.yaml

commands:
  run    execute the campaign and write artifacts
  check  validate the spec and print the cell plan
`)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaign: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch cmd := os.Args[1]; cmd {
	case "run":
		cmdRun(os.Args[2:])
	case "check":
		cmdCheck(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
}

// splitSpecArg supports the documented `campaign run spec.yaml -flags`
// order: the spec path may come before the flags (Go's flag package stops
// at the first positional otherwise).
func splitSpecArg(args []string) (spec string, rest []string) {
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		return args[0], args[1:]
	}
	return "", args
}

func parseCommand(name string, fs *flag.FlagSet, args []string) string {
	fs.Usage = func() {
		usage()
		fmt.Fprintf(os.Stderr, "\nflags of %s:\n", name)
		fs.PrintDefaults()
	}
	spec, rest := splitSpecArg(args)
	fs.Parse(rest) // ExitOnError: exits 2 on unknown flags
	if spec == "" && fs.NArg() > 0 {
		spec = fs.Arg(0)
		rest = fs.Args()[1:]
		fs.Parse(rest)
	}
	if err := cli.RejectArgs("campaign "+name, fs.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		fs.Usage()
		os.Exit(2)
	}
	if spec == "" {
		fmt.Fprintf(os.Stderr, "campaign %s: missing spec file\n", name)
		fs.Usage()
		os.Exit(2)
	}
	return spec
}

func loadPlan(path string) *campaign.Plan {
	buf, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := dsl.ParseSpec(buf)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	plan, err := campaign.Compile(spec)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return plan
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workers := fs.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "engine shards per simulation (0 = spec's shards key, else auto; results identical at every value)")
	out := fs.String("out", "campaign-out", "output directory (manifest + artifacts)")
	resume := fs.Bool("resume", false, "continue an interrupted campaign in -out")
	collapse := fs.String("collapse", "", `symmetry collapse: "auto" or "off" (default: the spec's collapse key; artifacts identical either way)`)
	quiet := fs.Bool("q", false, "suppress per-cell progress")
	specPath := parseCommand("run", fs, args)

	plan := loadPlan(specPath)
	// Ctrl-C or SIGTERM cancels the job cleanly: in-flight cells abort at
	// their next epoch barrier and the manifest keeps everything completed,
	// so the same command with -resume continues where this one stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	job, err := plan.Submit(ctx, campaign.Options{
		Workers: *workers, Shards: *shards, OutDir: *out, Resume: *resume,
		Collapse: *collapse,
	})
	if err != nil {
		log.Fatal(err)
	}
	for ev := range job.Rows() {
		if *quiet {
			continue
		}
		switch {
		case ev.Err != "":
			log.Printf("  [%d/%d] %s FAILED: %s", ev.Done, ev.Total, ev.Key, ev.Err)
		case ev.Cached:
			log.Printf("  [%d/%d] %s (cached)", ev.Done, ev.Total, ev.Key)
		case ev.Retry:
			log.Printf("  [%d/%d] %s (retry)", ev.Done, ev.Total, ev.Key)
		default:
			log.Printf("  [%d/%d] %s", ev.Done, ev.Total, ev.Key)
		}
	}
	res, err := job.Wait()
	if err != nil && !errors.Is(err, campaign.ErrCellsFailed) {
		log.Fatal(err)
	}
	if !*quiet {
		for _, n := range res.Collapsed {
			log.Printf("scenario %s seed %d: collapsed %d gateways -> %d classes",
				n.Scenario, n.Seed, n.FullGateways, n.Classes)
		}
		for _, a := range res.Artifacts {
			log.Printf("wrote %s", a)
		}
	}
	log.Printf("%s: %d cells (%d simulated in %d engine runs, %d resumed), %d artifact(s) in %s",
		plan.Spec.Name, len(res.Rows), res.Ran, res.Runs, res.Skipped, len(res.Artifacts), *out)
	if len(res.Failed) > 0 {
		// Failed cells (each already retried once) are recorded in the
		// manifest; `campaign run -resume` re-executes exactly these.
		log.Printf("%d cell(s) failed:", len(res.Failed))
		for _, key := range res.Failed {
			log.Printf("  FAILED %s", key)
		}
		os.Exit(1)
	}
}

func cmdCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	specPath := parseCommand("check", fs, args)
	plan := loadPlan(specPath)
	fmt.Printf("campaign %q: %d cell(s)\n", plan.Spec.Name, len(plan.Cells))
	for _, c := range plan.Cells {
		fmt.Printf("  %4d  %s\n", c.Index, c.Key())
	}
}
