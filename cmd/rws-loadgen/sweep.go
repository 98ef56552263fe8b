package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"
)

// SweepReport is the latency-under-load curve from a -sweep run, plus
// the knee: the highest offered rate the server sustained within the
// p99 SLO.
type SweepReport struct {
	Target        string   `json:"target"`
	Workers       int      `json:"workers"`
	Mix           string   `json:"mix"`
	Seed          int64    `json:"seed"`
	Arrival       string   `json:"arrival"`
	Stages        []Report `json:"stages"`
	KneeRate      float64  `json:"knee_rate"`
	KneeReason    string   `json:"knee_reason"`
	MaxThroughput float64  `json:"max_throughput_req_per_sec"`
}

// runSweep steps the offered rate through cfg.sweepRates, one
// cfg.duration stage each, and locates the knee. Stages past saturation
// are expected to fall short (that is the point of the sweep), so
// per-stage errors mark the stage unsustained instead of failing the
// run.
func (g *generator) runSweep(ctx context.Context, progress io.Writer) (SweepReport, error) {
	swp := SweepReport{
		Target:  g.cfg.target,
		Workers: g.cfg.workers,
		Mix:     g.cfg.mix,
		Seed:    g.cfg.seed,
		Arrival: "poisson",
	}
	for _, rate := range g.cfg.sweepRates {
		if ctx.Err() != nil {
			break // interrupted: report the stages that finished
		}
		rep, err := g.runStage(ctx, rate)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return swp, fmt.Errorf("sweep stage at %g req/s: %w", rate, err)
		}
		swp.Stages = append(swp.Stages, rep)
		if progress != nil {
			fmt.Fprintf(progress, "sweep: offered %8.0f req/s -> achieved %8.0f req/s, p50=%dµs p99=%dµs errors=%d\n",
				rate, rep.ReqPerSec, rep.P50Micros, rep.P99Micros, rep.Errors)
		}
		if rep.ReqPerSec > swp.MaxThroughput {
			swp.MaxThroughput = rep.ReqPerSec
		}
	}
	if len(swp.Stages) == 0 {
		return swp, errors.New("sweep completed no stages")
	}
	swp.KneeRate, swp.KneeReason = kneeOf(swp.Stages)
	return swp, nil
}

// kneeP99 is the latency SLO a sweep stage must meet to count as
// sustained: the p99 limit of the benchmark's rate ladders
// (BENCHMARK.json), so a knee read here and one read there agree.
const kneeP99 = 10 * time.Millisecond

// kneeOf scans up the curve for the last sustained stage: achieved
// within 1% of offered, no errors, and p99 within kneeP99. One
// unsustained stage ends the scan, so a fluke recovery at a higher rate
// (timeouts masking load) cannot move the knee past a failure.
func kneeOf(stages []Report) (rate float64, reason string) {
	for _, rep := range stages {
		p99 := time.Duration(rep.P99Micros) * time.Microsecond
		switch {
		case rep.Errors > 0:
			return rate, fmt.Sprintf("offered %g req/s: %d of %d requests failed", rep.OfferedRate, rep.Errors, rep.Requests)
		case rep.ReqPerSec < 0.99*rep.OfferedRate:
			return rate, fmt.Sprintf("offered %g req/s achieved only %.0f req/s", rep.OfferedRate, rep.ReqPerSec)
		case p99 > kneeP99:
			return rate, fmt.Sprintf("offered %g req/s: p99 %v over the %v SLO", rep.OfferedRate, p99, kneeP99)
		}
		rate = rep.OfferedRate
	}
	return rate, "every offered rate was sustained; the knee lies beyond the sweep's top rate"
}

func (s SweepReport) write(w io.Writer) {
	fmt.Fprintf(w, "rws-loadgen sweep: target=%s workers=%d mix=%s arrival=%s\n", s.Target, s.Workers, s.Mix, s.Arrival)
	fmt.Fprintf(w, "  %-12s %-12s %-9s %-9s %-9s %-9s %s\n", "OFFERED", "ACHIEVED", "P50µS", "P90µS", "P99µS", "P99.9µS", "ERRORS")
	for _, rep := range s.Stages {
		fmt.Fprintf(w, "  %-12.0f %-12.1f %-9d %-9d %-9d %-9d %d\n",
			rep.OfferedRate, rep.ReqPerSec, rep.P50Micros, rep.P90Micros, rep.P99Micros, rep.P999Micros, rep.Errors)
	}
	fmt.Fprintf(w, "  knee       %.0f req/s (%s)\n", s.KneeRate, s.KneeReason)
	fmt.Fprintf(w, "  max rate   %.1f req/s achieved\n", s.MaxThroughput)
}
