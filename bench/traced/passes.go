package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sprinting/bench/internal/spec"
	"sprinting/internal/core"
	"sprinting/internal/engine"
	"sprinting/internal/experiments"
	"sprinting/internal/fleet"
	"sprinting/internal/session"
	"sprinting/internal/thermal"
	"sprinting/internal/trace"
	"sprinting/internal/workloads"
)

// inputs are the traced pass's parameters: the workloads' fleets and input
// files, decoded the way fleetsim decodes them.
type inputs struct {
	seed                                             int64
	scaleSprint, scaleRoundRobin, flash, record, rep spec.Fleet
	flashScenario, replayScenario                    fleet.Scenario
	flashWorkload                                    fleet.WorkloadSpec
	fig9Scale                                        float64
	dir                                              string // where trace_replay writes its files
}

func defaultInputs(seed int64, dir string) (inputs, error) {
	in := inputs{seed: seed, scaleSprint: spec.ScaleSprint, scaleRoundRobin: spec.ScaleRoundRobin,
		flash: spec.FlashTenants, record: spec.TraceRecord, rep: spec.TraceReplay,
		fig9Scale: spec.Fig9Scale, dir: dir}
	for _, d := range []struct {
		text string
		into any
	}{
		{spec.FlashScenario, &in.flashScenario},
		{spec.FlashWorkload, &in.flashWorkload},
		{spec.ReplayScenario, &in.replayScenario},
	} {
		dec := json.NewDecoder(bytes.NewReader([]byte(d.text)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(d.into); err != nil {
			return in, err
		}
	}
	return in, nil
}

// config builds the fleet configuration fleetsim builds from f's flags.
func config(f spec.Fleet, seed int64) (fleet.Config, error) {
	p, err := fleet.ParsePolicy(f.Policy)
	if err != nil {
		return fleet.Config{}, err
	}
	c, err := fleet.ParseCoordination(f.Coordination)
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.DefaultConfig(p)
	cfg.Nodes = f.Nodes
	if f.Requests > 0 {
		cfg.Requests = f.Requests
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Coordination = c
	cfg.RackSize = f.RackSize
	cfg.Workers = f.ShardWorkers
	r := f.Reliability
	cfg.Reliability = fleet.Reliability{TimeoutS: r.TimeoutS, MaxRetries: r.MaxRetries,
		RetryBackoffS: r.RetryBackoffS, RetryBudgetPerS: r.RetryBudget, RetryBurst: r.RetryBurst,
		GrayFrac: r.GrayFrac, GraySlowdownX: r.GraySlowdown, FaultProb: r.FaultProb}
	if f.Trace != "" {
		cfg.Trace = fleet.TraceConfig{Level: trace.LevelFull}
	}
	return cfg, nil
}

// layers holds one workload's per-layer metrics by name.
type layers map[string]float64

// ratio returns a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addFleet records the fleet-layer metrics of one simulate call that took
// simS, of which genS generated arrivals.
func (l layers) addFleet(m fleet.Metrics, simS, genS float64, a alloc) {
	dispatches := float64(m.Requests + m.Retries + m.HedgesIssued + m.Redispatches)
	l["session.generate_s"] = genS
	l["fleet.simulate_s"] = simS
	l["fleet.engine_s"] = simS - genS
	l["fleet.dispatches"] = dispatches
	l["fleet.engine_ns_per_dispatch"] = ratio((simS-genS)*1e9, dispatches)
	l["fleet.alloc_mb"] = a.mb
	l["fleet.mallocs"] = a.mallocs
	l["rack.permit_requests"] = float64(m.PermitRequests)
	l["rack.permit_denial_rate"] = m.PermitDenialRate
	l["governor.sprint_denial_rate"] = m.SprintDenialRate
	l["scenario.node_failures"] = float64(m.NodeFailures)
	l["scenario.rack_failures"] = float64(m.RackFailures)
	l["scenario.redispatches"] = float64(m.Redispatches)
	l["workload.admission_shed"] = float64(m.AdmissionShed)
	l["reliability.retries"] = float64(m.Retries)
	l["reliability.timed_out"] = float64(m.TimedOut)
	l["hedge.issued"] = float64(m.HedgesIssued)
	l["hedge.cancelled_copies"] = float64(m.CancelledCopies)
	l["reliability.goodput_ratio"] = ratio(m.GoodputRPS, m.ThroughputRPS)
	l["reliability.retry_amplification"] = ratio(float64(m.Requests+m.Retries), float64(m.Requests))
	l["hedge.win_rate"] = ratio(float64(m.HedgeWins), float64(m.HedgesIssued))
}

// A pass traces one workload. Each opens a root span "run" around the
// calls the workload's commands make, so that bench.untraced_gap_s can
// subtract it from the commands' wall time, and a root span "probe" around
// the extra calls that split it into layers.
type pass func(ctx context.Context, t *Tracer, in inputs) (layers, error)

var passes = map[string]pass{
	"scale_sprint": func(ctx context.Context, t *Tracer, in inputs) (layers, error) {
		return scalePass(ctx, t, in.scaleSprint, in.seed, false)
	},
	"scale_roundrobin": func(ctx context.Context, t *Tracer, in inputs) (layers, error) {
		return scalePass(ctx, t, in.scaleRoundRobin, in.seed, true)
	},
	"flash_tenants": flashPass,
	"trace_replay":  replayPass,
	"paper_fig9":    fig9Pass,
}

// scalePass traces fleet.Simulate on a synthetic stream, and on its own the
// session.GenerateBursts call Simulate makes first. With shardOverhead it
// also times the call at one worker.
func scalePass(ctx context.Context, t *Tracer, f spec.Fleet, seed int64, shardOverhead bool) (layers, error) {
	cfg, err := config(f, seed)
	if err != nil {
		return nil, err
	}
	var m fleet.Metrics
	var simS float64
	var a alloc
	if _, err := t.Span("run", func() (err error) {
		simS, a, err = t.SpanAlloc("fleet.Simulate", func() (err error) {
			m, err = fleet.Simulate(ctx, cfg)
			return err
		})
		return err
	}); err != nil {
		return nil, err
	}
	l := layers{}
	_, err = t.Span("probe", func() error {
		genS, _ := t.Span("session.GenerateBursts", func() error {
			session.GenerateBursts(cfg.Requests, 1/cfg.EffectiveRatePerS(), cfg.MeanWorkS, cfg.Seed)
			return nil
		})
		l.addFleet(m, simS, genS, a)
		if !shardOverhead {
			return nil
		}
		one := cfg
		one.Workers = 1
		oneS, err := t.Span("fleet.Simulate/workers=1", func() error {
			_, err := fleet.Simulate(ctx, one)
			return err
		})
		l["fleet.shard_overhead_x"] = simS / oneS
		return err
	})
	return l, err
}

// flashPass traces the multi-tenant scenario run, and the same run at one
// worker.
func flashPass(ctx context.Context, t *Tracer, in inputs) (layers, error) {
	cfg, err := config(in.flash, in.seed)
	if err != nil {
		return nil, err
	}
	var m fleet.Metrics
	var simS float64
	var a alloc
	if _, err := t.Span("run", func() (err error) {
		simS, a, err = t.SpanAlloc("fleet.SimulateScenarioWorkload", func() (err error) {
			m, err = fleet.SimulateScenarioWorkload(ctx, cfg, in.flashScenario, in.flashWorkload)
			return err
		})
		return err
	}); err != nil {
		return nil, err
	}
	l := layers{}
	l.addFleet(m, simS, 0, a)
	one := cfg
	one.Workers = 1
	_, err = t.Span("probe", func() error {
		oneS, err := t.Span("fleet.SimulateScenarioWorkload/workers=1", func() error {
			_, err := fleet.SimulateScenarioWorkload(ctx, one, in.flashScenario, in.flashWorkload)
			return err
		})
		l["fleet.shard_overhead_x"] = simS / oneS
		return err
	})
	return l, err
}

// replayPass traces the record → convert → replay path step by step, and
// the same scenario run without the recorder.
func replayPass(ctx context.Context, t *Tracer, in inputs) (layers, error) {
	recCfg, err := config(in.record, in.seed)
	if err != nil {
		return nil, err
	}
	repCfg, err := config(in.rep, in.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	recPath := filepath.Join(in.dir, spec.RecordingFile)
	csvPath := filepath.Join(in.dir, spec.ReplayTraceFile)
	l := layers{}
	var (
		tr   *trace.Trace
		rows []fleet.TraceRequest
		a    alloc
	)
	_, err = t.Span("run", func() error {
		if _, err := t.Span("record", func() (err error) {
			l["trace.record_s"], a, err = t.SpanAlloc("fleet.SimulateScenarioTraced", func() (err error) {
				_, tr, err = fleet.SimulateScenarioTraced(ctx, recCfg, in.replayScenario)
				return err
			})
			l["trace.record_alloc_mb"] = a.mb
			if err != nil {
				return err
			}
			l["trace.write_jsonl_s"], err = t.Span("trace.WriteJSONL", func() error {
				return writeFile(recPath, tr.WriteJSONL)
			})
			return err
		}); err != nil {
			return err
		}
		if _, err := t.Span("convert", func() (err error) {
			var read *trace.Trace
			l["trace.read_jsonl_s"], err = t.Span("trace.ReadJSONL", func() error {
				f, err := os.Open(recPath)
				if err != nil {
					return err
				}
				defer f.Close()
				read, err = trace.ReadJSONL(bufio.NewReader(f))
				return err
			})
			if err != nil {
				return err
			}
			l["replay.from_recording_s"], err = t.Span("fleet.ReplayFromRecording", func() (err error) {
				rows, err = fleet.ReplayFromRecording(read)
				return err
			})
			if err != nil {
				return err
			}
			l["replay.write_csv_s"], err = t.Span("fleet.WriteRequestTraceCSV", func() error {
				return writeFile(csvPath, func(w io.Writer) error { return fleet.WriteRequestTraceCSV(w, rows) })
			})
			return err
		}); err != nil {
			return err
		}
		_, err := t.Span("replay", func() (err error) {
			l["replay.parse_s"], err = t.Span("fleet.ParseRequestTrace", func() error {
				f, err := os.Open(csvPath)
				if err != nil {
					return err
				}
				defer f.Close()
				rows, err = fleet.ParseRequestTrace(f)
				return err
			})
			if err != nil {
				return err
			}
			l["replay.simulate_s"], err = t.Span("fleet.SimulateReplay", func() error {
				_, err := fleet.SimulateReplay(ctx, repCfg, rows, nil)
				return err
			})
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	l["replay.rows"] = float64(len(rows))
	for _, r := range tr.Records {
		switch {
		case r.Decision != nil:
			l["trace.decisions"]++
			l["trace.alts"] += float64(len(r.Decision.Alts))
		case r.Event != nil:
			l["trace.events"]++
		case r.Sample != nil:
			l["trace.samples"]++
		}
	}
	if st, err := os.Stat(recPath); err == nil {
		l["trace.jsonl_mb"] = float64(st.Size()) / (1 << 20)
	}
	plain := recCfg
	plain.Trace = fleet.TraceConfig{}
	_, err = t.Span("probe", func() error {
		var m fleet.Metrics
		simS, a, err := t.SpanAlloc("fleet.SimulateScenario", func() (err error) {
			m, err = fleet.SimulateScenario(ctx, plain, in.replayScenario)
			return err
		})
		l.addFleet(m, simS, 0, a)
		l["trace.plain_s"] = simS
		l["trace.overhead_x"] = l["trace.record_s"] / simS
		return err
	})
	return l, err
}

// writeFile creates path and writes it through a buffer with fn.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = fn(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// fig9Pass traces experiments.Fig9 from a cold point cache, then runs each
// of its points alone at one worker to time the simulator without the
// pool.
func fig9Pass(ctx context.Context, t *Tracer, in inputs) (layers, error) {
	opt := experiments.Options{Scale: in.fig9Scale, Workers: spec.Fig9Workers}
	experiments.ResetCache()
	var figS float64
	if _, err := t.Span("run", func() (err error) {
		figS, err = t.Span("experiments.Fig9", func() error {
			_, err := experiments.Fig9(ctx, opt)
			return err
		})
		return err
	}); err != nil {
		return nil, err
	}
	limited := core.DefaultConfig(core.ParallelSprint)
	limited.Thermal = thermal.LimitedStackConfig()
	configs := []core.Config{core.DefaultConfig(core.Sustained), core.DefaultConfig(core.ParallelSprint), limited}
	var instrs float64
	pointS, err := t.Span("probe", func() error {
		for _, k := range workloads.All() {
			for _, size := range k.Sizes {
				for _, cfg := range configs {
					p := engine.Point{Kernel: k.Name, Size: size, Scale: in.fig9Scale,
						Seed: experiments.DefaultOptions().Seed, Shards: 64, Config: cfg}
					var res []core.Result
					if _, err := t.Span("engine.RunGrid", func() (err error) {
						res, err = engine.RunGrid(ctx, []engine.Point{p}, engine.Options{Workers: 1})
						return err
					}); err != nil {
						return fmt.Errorf("%s/%s: %w", k.Name, size, err)
					}
					for _, c := range res[0].Machine.PerCore {
						instrs += float64(c.ComputeOps + c.Loads + c.Stores)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return layers{
		"experiments.fig9_s":         figS,
		"archsim.point_s":            pointS,
		"archsim.sim_minstr_per_s":   instrs / pointS / 1e6,
		"engine.parallel_efficiency": pointS / (spec.Fig9Workers * figS),
	}, nil
}
