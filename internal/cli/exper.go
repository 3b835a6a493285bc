package cli

import (
	"flag"
	"fmt"
	"io"

	"hsched/internal/experiments"
	"hsched/internal/service"
)

// The A10 policy sweep's shared parameters, fixed-seeded so the test
// suite can lock the rendered values: the utilisation band where the
// policies genuinely separate on the generated jittered task sets.
var policySweepUtils = []float64{0.5, 0.65, 0.8}

const (
	policySweepPerPoint = 25
	policySweepSeed     = int64(2000)
)

// Exper implements cmd/hsexper: regenerate paper tables/figures and
// the ablations of DESIGN.md. Exit codes: 0 success, 1 error.
func Exper(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hsexper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table    = fs.Int("table", 0, "reproduce one table (1, 2 or 3)")
		figure   = fs.Int("figure", 0, "reproduce one figure (3 or 5)")
		ablation = fs.String("ablation", "", "run one ablation: exact, pessimism, soundness, design, network, edf, acceptance, admission or assign")
		asCSV    = fs.Bool("csv", false, "emit plot-ready CSV instead of text (table 3, figure 3, pessimism, acceptance, assign)")
		workers  = fs.Int("workers", 0, "parallel workers of the acceptance and assign sweeps (0 = all CPUs)")
		cache    = fs.Bool("cache", false, "share one memoised analysis service across the acceptance/assign sweep and print its cache statistics")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	// With -cache the acceptance sweep runs through one explicit
	// service so its statistics can be reported afterwards; without it
	// the sweep still uses a service internally (stripes and in-flight
	// dedup), just an anonymous one.
	var svc *service.Service
	if *cache {
		svc = service.New(service.Options{Shards: experiments.SweepShards(*workers)})
		// Only the acceptance and assign sweeps are service-
		// instrumented; say so instead of silently ignoring the flag
		// elsewhere.
		if !(*table == 0 && *figure == 0 && *ablation == "") && *ablation != "acceptance" && *ablation != "assign" {
			fmt.Fprintln(stderr, "hsexper: -cache only instruments the acceptance and assign sweeps; other artefacts run uncached")
		}
	}
	// Stats go to stderr in CSV mode so the data stream stays
	// machine-readable.
	sweepStats := func() {
		if svc == nil {
			return
		}
		dst := stdout
		if *asCSV {
			dst = stderr
		}
		printCacheStats(dst, svc.Stats())
	}
	acceptance := func(utils []float64, perPoint int, seed int64) ([]experiments.AcceptancePoint, error) {
		pts, err := experiments.AcceptanceRatioService(utils, perPoint, seed, *workers, svc)
		if err == nil {
			sweepStats()
		}
		return pts, err
	}
	policies := func(utils []float64, perPoint int, seed int64) ([]experiments.PolicyAcceptancePoint, error) {
		pts, err := experiments.PolicyAcceptance(utils, perPoint, seed, *workers, svc)
		if err == nil {
			sweepStats()
		}
		return pts, err
	}

	if *asCSV {
		var err error
		switch {
		case *table == 3:
			err = experiments.Table3CSV(stdout)
		case *figure == 3:
			err = experiments.Figure3CSV(stdout, 1, 4, 16, 64)
		case *ablation == "pessimism":
			rows, rerr := experiments.Pessimism([]float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9})
			if rerr == nil {
				err = experiments.PessimismCSV(stdout, rows)
			} else {
				err = rerr
			}
		case *ablation == "acceptance":
			pts, rerr := acceptance([]float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.9}, 25, 1000)
			if rerr == nil {
				err = experiments.AcceptanceCSV(stdout, pts)
			} else {
				err = rerr
			}
		case *ablation == "assign":
			pts, rerr := policies(policySweepUtils, policySweepPerPoint, policySweepSeed)
			if rerr == nil {
				err = experiments.PolicyAcceptanceCSV(stdout, pts)
			} else {
				err = rerr
			}
		default:
			err = fmt.Errorf("-csv supports -table 3, -figure 3, -ablation pessimism, -ablation acceptance and -ablation assign")
		}
		if err != nil {
			fmt.Fprintln(stderr, "hsexper:", err)
			return 1
		}
		return 0
	}

	all := *table == 0 && *figure == 0 && *ablation == ""
	failed := false
	run := func(name string, gen func() (string, error)) {
		out, err := gen()
		if err != nil {
			fmt.Fprintf(stderr, "hsexper: %s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Fprintln(stdout, out)
	}

	if all || *table == 1 {
		fmt.Fprintln(stdout, experiments.Table1())
	}
	if all || *table == 2 {
		fmt.Fprintln(stdout, experiments.Table2())
	}
	if all || *table == 3 {
		run("table 3", experiments.Table3)
	}
	if all || *figure == 3 {
		run("figure 3", func() (string, error) { return experiments.Figure3(1, 4) })
	}
	if all || *figure == 5 {
		run("figure 5", experiments.Figure5)
	}
	if all || *ablation == "exact" {
		run("ablation A1", func() (string, error) {
			rows, err := experiments.ExactVsApprox([]int64{1, 2, 3, 4, 5})
			if err != nil {
				return "", err
			}
			return experiments.RenderExactVsApprox(rows), nil
		})
	}
	if all || *ablation == "pessimism" {
		run("ablation A2", func() (string, error) {
			rows, err := experiments.Pessimism([]float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9})
			if err != nil {
				return "", err
			}
			return experiments.RenderPessimism(rows), nil
		})
	}
	if all || *ablation == "soundness" {
		run("ablation A3", func() (string, error) {
			rows, err := experiments.SimVsAnalysis([]int64{1, 2, 3, 4, 5, 6, 7, 8})
			if err != nil {
				return "", err
			}
			return experiments.RenderSimVsAnalysis(rows), nil
		})
	}
	if all || *ablation == "design" {
		run("ablation A5", func() (string, error) {
			out, _, err := experiments.DesignSearch()
			return out, err
		})
	}
	if all || *ablation == "network" {
		run("ablation A6", experiments.NetworkExperiment)
	}
	if all || *ablation == "edf" {
		run("ablation A7", func() (string, error) {
			rows, err := experiments.EDFvsFP()
			if err != nil {
				return "", err
			}
			return experiments.RenderEDFvsFP(rows), nil
		})
	}
	if all || *ablation == "acceptance" {
		run("ablation A8", func() (string, error) {
			pts, err := acceptance([]float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.9}, 25, 1000)
			if err != nil {
				return "", err
			}
			return experiments.RenderAcceptanceRatio(pts), nil
		})
	}
	if all || *ablation == "admission" {
		run("ablation A9", func() (string, error) {
			rep, err := experiments.AdmissionChurn(30, nil)
			if err != nil {
				return "", err
			}
			return experiments.RenderAdmissionChurn(rep), nil
		})
	}
	if all || *ablation == "assign" {
		run("ablation A10", func() (string, error) {
			pts, err := policies(policySweepUtils, policySweepPerPoint, policySweepSeed)
			if err != nil {
				return "", err
			}
			return experiments.RenderPolicyAcceptance(pts), nil
		})
	}
	if failed {
		return 1
	}
	return 0
}
