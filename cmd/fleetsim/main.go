// Command fleetsim runs the datacenter fleet simulation: N sprint-capable
// nodes — each owning a governor-managed thermal budget and a bounded FIFO
// queue — serve an open-loop request stream under a dispatch policy, and
// the simulator reports throughput, latency percentiles to p999, the
// sprint-denial rate, and per-node energy. With -coordination the nodes
// are grouped into racks sharing a provisioned power budget backed by an
// ultracap buffer, and the report adds breaker trips, throttled seconds,
// and the permit-denial rate.
//
// Every mode (synthetic, scenario, workload, replay, trace) runs its
// policy × coordination grid as one sweep on the engine worker pool; every
// simulation is deterministic, so -workers=1 produces byte-identical
// output. Independently, -shard-workers W shards each simulation's own
// event loop across W per-worker loops on real goroutines, with racks as
// the shard boundary. It parallelizes only plain round-robin runs
// (without probabilistic admission, a scenario, tracing, reliability, or
// a workload); for every other run it is a no-op, since their dispatch
// and global state couple the shards. The output is byte-identical at
// every W. Ctrl-C cancels a long sweep cleanly.
//
// Usage:
//
//	fleetsim                                    # the four policies side by side
//	fleetsim -nodes 1000 -policy sprint-aware   # one policy at datacenter scale
//	fleetsim -nodes 8 -rate 3.8 -requests 4000  # explicit load point
//	fleetsim -policy hedged -hedge-s 0.5        # tune the hedging delay
//	fleetsim -coordination all -rack-size 16    # rack coordination side by side
//	fleetsim -coordination uncoordinated -rack-budget-w 31 -rate 9.6
//	fleetsim -nodes 10000 -requests 1000000 -policy sprint-aware \
//	    -coordination token-permit -rack-size 16 # warehouse scale, seconds
//	fleetsim -nodes 10000 -requests 1000000 -policy round-robin \
//	    -shard-workers 8                        # sharded loop
//	fleetsim -nodes 10000 -requests 1000000 -cpuprofile fleet.pprof
//	fleetsim -policy sprint-aware -trace out.jsonl -trace-summary
//	fleetsim -gray-frac 0.15 -gray-slowdown 8 -timeout-s 6 \
//	    -max-retries 3 -retry-budget 5          # fault injection + budgeted retries
//
// The reliability flags arm the request-reliability layer: -gray-frac /
// -gray-slowdown plant gray stragglers (alive but slowed — queue-aware
// policies can see the backlog, blind ones cannot), -fault-prob injects
// transient service faults, and -timeout-s arms client-side timeouts
// whose expired attempts retry with exponential backoff up to
// -max-retries, capped fleet-wide by the -retry-budget token bucket
// (an empty bucket sheds the request instead of retrying — the
// defense against retry-storm metastability). The report then adds
// goodput (completed work only, vs throughput's all-services rate),
// timed-out/shed counts, and the retry-amplification factor.
//
// Traces above 131072 requests stream latencies through a log-scale
// histogram (quantiles within 1.81%, mean/max exact) unless
// -exact-quantiles buffers them; -cpuprofile and -memprofile capture
// pprof profiles of the run for performance work.
//
// With -scenario file.json the run goes dynamic: the JSON file declares
// load phases (flat, ramp, sine, decay, with per-phase ambient shifts),
// optional heterogeneous node classes, and node failure/recovery churn,
// and the report breaks every policy × coordination combination down per
// phase. The scenario file owns the load, so -requests and -rate are
// rejected alongside it:
//
//	fleetsim -scenario flashcrowd.json -policy all
//	fleetsim -scenario flashcrowd.json -coordination token-permit -workers 1
//
// A minimal scenario file:
//
//	{
//	  "base_rate_per_s": 7.2,
//	  "phases": [
//	    {"name": "baseline", "duration_s": 60, "start_factor": 0.7},
//	    {"name": "surge", "duration_s": 40, "start_factor": 2.0},
//	    {"name": "recovery", "duration_s": 60, "shape": "decay",
//	     "start_factor": 2.0, "end_factor": 0.5}
//	  ],
//	  "churn": {"mtbf_s": 20, "mean_downtime_s": 5}
//	}
//
// With -trace file.jsonl the run attaches the flight recorder and writes
// the recording as JSONL: a meta header, then every dispatch decision
// (winning key, top-k rejected alternatives with counterfactual finish
// times), lifecycle event (hedges, breaker trips, churn, sprints), and
// rolling timeline sample, in exact global event order — byte-identical
// at any -shard-workers count. Tracing records a single run, so it
// requires one concrete -policy and -coordination; -trace-level picks
// decisions (default) or full, -counterfactual-k and -timeline-window-s
// tune the recorder, and -trace-summary prints the top regret decisions
// and a per-window p99 sparkline after the report, read back from the
// file in one pass. The recording streams to its file while the run
// proceeds, each record as soon as it is final, so the recorder never
// holds the whole recording. A regular file is written in place: an
// existing file is overwritten without first being truncated, then cut
// to the new length. A run that fails or is cancelled after the file is
// opened exits 1 and removes it (a symlink's target is emptied), so an
// older recording at that path is gone too; a run killed outright
// (SIGKILL, out of memory) gets no such cleanup and leaves its partial
// recording over the older file's tail.
// Any other destination (/dev/null, a FIFO, /dev/stdout) is written as a
// stream, never truncated or removed; -trace-summary then reads a copy
// kept in memory, the one case that holds the whole recording.
// -replay-out is written the same way. A traced load spread over more
// than 2^20 timeline windows is refused:
//
//	fleetsim -policy sprint-aware -trace out.jsonl -counterfactual-k 5
//	fleetsim -scenario flashcrowd.json -coordination token-permit \
//	    -trace flash.jsonl -trace-level full -trace-summary
//
// With -replay file the run replays a recorded request trace (JSON lines
// or CSV of arrival_s, work_s and optional width/tenant/class labels)
// instead of synthesizing arrivals — deterministic what-if replays of
// recorded demand, byte-identical at any -shard-workers count; -policy all
// and -coordination all sweep the same rows.
// -convert-trace recording.jsonl -replay-out trace.csv converts a flight
// recording into such a trace, closing the record→replay loop (replaying
// a recording of a plain run reproduces that run's metrics exactly); it
// takes no flag but those two and -cpuprofile/-memprofile, which profile
// the conversion.
// With -workload file.json the run draws from a declarative multi-tenant
// workload: SLO classes (priority, latency target, token-bucket
// admission, per-class hedge delay), tenant populations with their own
// arrival processes (poisson/gamma/weibull) and work/width
// distributions, and a dequeue discipline (fifo, priority, or sjf); add
// -scenario to ride the tenants on its phases and churn. Both modes
// report per-class latency/goodput/SLO lines and the Jain fairness index
// over tenants:
//
//	fleetsim -policy sprint-aware -trace rec.jsonl && \
//	    fleetsim -convert-trace rec.jsonl -replay-out trace.csv && \
//	    fleetsim -policy sprint-aware -replay trace.csv
//	fleetsim -workload tenants.json -policy sprint-aware
//	fleetsim -workload tenants.json -scenario flashcrowd.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"sprinting"
	"sprinting/internal/profiling"
)

// printScenarioReport renders the dynamic-scenario report: every policy ×
// coordination combination plays the same scenario, and each run breaks
// down per phase (counts attributed to the phase a request arrived in)
// before the overall line.
func printScenarioReport(path string, scen sprinting.FleetScenario, metrics []sprinting.FleetMetrics, stdout io.Writer) {
	// The run derived the timeline; its last phase ends it.
	totalS := metrics[0].Phases[len(metrics[0].Phases)-1].EndS
	churn := ""
	if scen.Churn.MTBFS > 0 {
		churn = fmt.Sprintf(", churn mtbf %.0f s", scen.Churn.MTBFS)
	}
	classes := ""
	if n := len(scen.Classes); n > 0 {
		classes = fmt.Sprintf(", %d node classes", n)
	}
	// Class declarations size the fleet; the metrics carry the node count
	// the simulation actually ran with.
	fmt.Fprintf(stdout, "scenario %s: %d phases over %.0f s, %d nodes%s%s\n",
		path, len(scen.Phases), totalS, len(metrics[0].Nodes), classes, churn)
	for _, m := range metrics {
		fmt.Fprintf(stdout, "\n== %s · coordination %s ==\n", m.Policy, m.Coordination)
		fmt.Fprintf(stdout, "%-12s %11s %8s %12s %9s %9s %9s %8s %7s %6s %6s\n",
			"phase", "span (s)", "offered", "thr (req/s)", "p50 (s)", "p99 (s)", "p999 (s)",
			"denied %", "dropped", "redisp", "fails")
		for _, ph := range m.Phases {
			fmt.Fprintf(stdout, "%-12s %4.0f-%-6.0f %8d %12.3f %9.3f %9.3f %9.3f %8.2f %7d %6d %6d\n",
				ph.Name, ph.StartS, ph.EndS, ph.Offered, ph.ThroughputRPS,
				ph.P50S, ph.P99S, ph.P999S, 100*ph.SprintDenialRate,
				ph.Dropped, ph.Redispatches, ph.NodeFailures)
		}
		fmt.Fprintf(stdout, "overall: thr %.3f req/s, p99 %.3f s, %d/%d completed, %d dropped, %d failures, %d recoveries, %d redispatches",
			m.ThroughputRPS, m.P99S, m.Completed, m.Requests, m.Dropped,
			m.NodeFailures, m.NodeRecoveries, m.Redispatches)
		if m.Coordination != sprinting.RackNoCoordination {
			fmt.Fprintf(stdout, ", %d trips, permit-denial %.1f%%", m.BreakerTrips, 100*m.PermitDenialRate)
		}
		if m.RackFailures > 0 {
			fmt.Fprintf(stdout, ", %d rack failures", m.RackFailures)
		}
		if m.TimedOut+m.Shed+m.Retries+m.TransientFaults+m.GrayNodes > 0 {
			fmt.Fprintf(stdout, "\nreliability: goodput %.3f req/s, %d timed out, %d shed, %d retries (amplification %.2fx), %d transient faults, %d gray nodes",
				m.GoodputRPS, m.TimedOut, m.Shed, m.Retries, m.RetryAmplification, m.TransientFaults, m.GrayNodes)
		}
		fmt.Fprintln(stdout)
		printWorkloadReport(stdout, m)
	}
	fmt.Fprintln(stdout, "\nphases attribute requests to their arrival window; sprint-aware dispatch rides a flash crowd on remaining thermal headroom")
}

// printReliabilityLine appends one run's reliability-layer outcome below
// its report row; a run with the layer off (nothing timed out, shed,
// retried, faulted, or gray) prints nothing.
func printReliabilityLine(stdout io.Writer, m sprinting.FleetMetrics) {
	if m.TimedOut+m.Shed+m.Retries+m.TransientFaults+m.GrayNodes == 0 {
		return
	}
	fmt.Fprintf(stdout, "%-14s goodput %.3f req/s, %d timed out, %d shed, %d retries (amplification %.2fx), %d transient faults, %d gray nodes\n",
		"", m.GoodputRPS, m.TimedOut, m.Shed, m.Retries, m.RetryAmplification, m.TransientFaults, m.GrayNodes)
}

// printRunTable renders the standard report table for a set of runs —
// the rack-mode or plain column set, one row per run followed by its
// optional hedge, reliability, and per-class workload lines.
func printRunTable(stdout io.Writer, rackMode bool, metrics []sprinting.FleetMetrics) {
	if rackMode {
		fmt.Fprintf(stdout, "%-14s %-14s %11s %9s %9s %9s %7s %11s %10s %8s %9s\n",
			"policy", "coordination", "thr (req/s)", "p50 (s)", "p99 (s)", "p999 (s)",
			"trips", "rack-thr(s)", "permit-d %", "dropped", "J/req")
		for _, m := range metrics {
			fmt.Fprintf(stdout, "%-14s %-14s %11.3f %9.3f %9.3f %9.3f %7d %11.1f %10.2f %8d %9.2f\n",
				m.Policy.String(), m.Coordination.String(), m.ThroughputRPS,
				m.P50S, m.P99S, m.P999S, m.BreakerTrips, m.RackThrottledS,
				100*m.PermitDenialRate, m.Dropped, m.EnergyPerRequestJ)
			printReliabilityLine(stdout, m)
			printWorkloadReport(stdout, m)
		}
		return
	}
	fmt.Fprintf(stdout, "%-14s %11s %9s %9s %9s %9s %9s %9s %8s %9s\n",
		"policy", "thr (req/s)", "p50 (s)", "p95 (s)", "p99 (s)", "p999 (s)", "max (s)",
		"denied %", "dropped", "J/req")
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-14s %11.3f %9.3f %9.3f %9.3f %9.3f %9.3f %9.2f %8d %9.2f\n",
			m.Policy.String(), m.ThroughputRPS, m.P50S, m.P95S, m.P99S, m.P999S, m.MaxS,
			100*m.SprintDenialRate, m.Dropped, m.EnergyPerRequestJ)
		if m.HedgesIssued > 0 || m.HedgesSuppressed > 0 {
			fmt.Fprintf(stdout, "%-14s %d hedges issued, %d won, %d copies cancelled, %d suppressed (no spare capacity), %.0f J total service energy\n",
				"", m.HedgesIssued, m.HedgeWins, m.CancelledCopies, m.HedgesSuppressed, m.TotalEnergyJ)
		}
		printReliabilityLine(stdout, m)
		printWorkloadReport(stdout, m)
	}
}

// printWorkloadReport renders the per-SLO-class breakdown and tenant
// fairness below a run's report row; a run without a workload prints
// nothing. The shed column breaks out admission-bucket door sheds in
// parentheses.
func printWorkloadReport(stdout io.Writer, m sprinting.FleetMetrics) {
	if len(m.Classes) == 0 {
		return
	}
	fmt.Fprintf(stdout, "%-14s %4s %8s %9s %7s %7s %11s %7s %11s %9s %9s %9s %6s\n",
		"class", "prio", "offered", "completed", "dropped", "t-out", "shed (adm)", "retries",
		"gdp (req/s)", "p50 (s)", "p99 (s)", "p999 (s)", "slo %")
	for _, c := range m.Classes {
		slo := "-"
		if c.TargetP99S > 0 {
			slo = fmt.Sprintf("%.1f", 100*c.SLOAttainment)
		}
		fmt.Fprintf(stdout, "%-14s %4d %8d %9d %7d %7d %5d (%3d) %7d %11.3f %9.3f %9.3f %9.3f %6s\n",
			c.Name, c.Priority, c.Offered, c.Completed, c.Dropped, c.TimedOut, c.Shed, c.AdmissionShed,
			c.Retries, c.GoodputRPS, c.P50S, c.P99S, c.P999S, slo)
	}
	if len(m.Tenants) > 0 {
		fmt.Fprintf(stdout, "%d tenants, Jain fairness %.3f\n", len(m.Tenants), m.JainFairness)
	}
}

// readJSON strictly decodes the JSON file at path into v (unknown fields
// are errors, and so is anything but white space after the one value),
// reporting failures on stderr as exit 1.
func readJSON(path string, v any, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "fleetsim:", err)
		return 1
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err = dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("trailing data after the JSON value")
		} else if err == io.EOF {
			return 0
		}
	}
	fmt.Fprintf(stderr, "fleetsim: %s: %v\n", path, err)
	return 1
}

// convertRecording reads a flight-recorder JSONL recording and writes
// its fresh-arrival dispatch decisions as a replayable CSV trace — the
// record half of the record→replay loop.
func convertRecording(in, out string, stdout, stderr io.Writer) int {
	f, err := os.Open(in)
	if err != nil {
		fmt.Fprintln(stderr, "fleetsim:", err)
		return 1
	}
	rows, err := sprinting.ReplayFromJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(stderr, "fleetsim: %s: %v\n", in, err)
		return 1
	}
	of, err := createInPlace(out)
	if err != nil {
		fmt.Fprintln(stderr, "fleetsim:", err)
		return 1
	}
	bw := bufio.NewWriter(of)
	err = sprinting.WriteRequestTraceCSV(bw, rows)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := of.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		of.remove()
		fmt.Fprintf(stderr, "fleetsim: %s: %v\n", out, err)
		return 1
	}
	fmt.Fprintf(stdout, "converted %s: %d replayable arrivals -> %s\n", in, len(rows), out)
	return 0
}

// outFile writes a file in place: it opens the path without truncating
// it and counts the bytes written. Rewriting an existing file this way
// spares the forced writeback some filesystems (ext4's auto_da_alloc)
// start when a truncated file is closed. A regular file is cut to the
// bytes written on Close, so a shorter output still leaves exactly its
// own bytes, and remove drops it after a failed run. Any other file
// (/dev/null, a FIFO, a terminal) is written as a stream and never
// truncated or removed. A symlinked path is written through, as with
// os.Create.
//
// The price: the old bytes stay in place until Close cuts them, so a run
// killed outright (SIGKILL, out of memory) leaves its new prefix over the
// older file's tail rather than only a prefix.
type outFile struct {
	f       *os.File
	path    string
	n       int64
	regular bool // f is a regular file
	linked  bool // path reaches f through a symlink
}

func createInPlace(path string) (*outFile, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		return nil, err
	}
	o := &outFile{f: f, path: path}
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		o.regular = true
		li, err := os.Lstat(path)
		o.linked = err != nil || !os.SameFile(fi, li)
	}
	return o, nil
}

func (o *outFile) Write(p []byte) (int, error) {
	n, err := o.f.Write(p)
	o.n += int64(n)
	return n, err
}

// Close cuts a regular file to the bytes written and closes it, on every
// path, so no stale tail of an older file survives.
func (o *outFile) Close() error {
	var err error
	if o.regular {
		err = o.f.Truncate(o.n)
	}
	if cerr := o.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// remove drops a closed output after a failed run: a regular file is
// removed, or emptied when the path is a symlink to it; any other file
// is left alone.
func (o *outFile) remove() {
	switch {
	case !o.regular:
	case o.linked:
		os.Truncate(o.path, 0)
	default:
		os.Remove(o.path)
	}
}

// printTraceSummary condenses the recording for a human, in one pass
// over its bytes: where the dispatcher left the most latency on the table
// (regret against the counterfactual best rejected alternative), and how
// the p99 tail moved window by window. It reads the recording back from
// path, or from kept, the copy a run streaming to a file it cannot read
// back (/dev/null, a FIFO) held. A recording that cannot be read fails
// the run with exit 1.
func printTraceSummary(stdout, stderr io.Writer, path string, kept *bytes.Buffer) int {
	var r io.Reader = kept
	if kept == nil {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "fleetsim:", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	sum, err := sprinting.SummarizeFleetTrace(r, 5)
	if err != nil {
		fmt.Fprintf(stderr, "fleetsim: %s: %v\n", path, err)
		return 1
	}
	fmt.Fprintf(stdout, "\ntrace %s: %d records (%d decisions, %d samples, level %s)\n",
		path, sum.Records, sum.Decisions, len(sum.P99S), sum.Meta.Level)
	fmt.Fprintf(stdout, "p99 per %.0fs window: %s\n", sum.Meta.WindowS, sprinting.TraceSparkline(sum.P99S))
	if len(sum.TopRegret) == 0 {
		fmt.Fprintln(stdout, "no regret resolved: every counterfactual alternative was still pending at the end of the trace")
		return 0
	}
	fmt.Fprintln(stdout, "top regret decisions (realized completion vs best rejected alternative):")
	fmt.Fprintf(stdout, "%10s %-10s %8s %6s %10s %12s %10s\n",
		"at (s)", "kind", "req", "node", "best alt", "done (s)", "regret (s)")
	for _, r := range sum.TopRegret {
		fmt.Fprintf(stdout, "%10.3f %-10s %8d %6d %10d %12.3f %10.3f\n",
			r.AtS, r.Kind, r.Req, r.Node, r.BestAlt, r.DoneS, r.RegretS)
	}
	return 0
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against the given streams; main is the only
// caller that attaches real ones (tests drive buffers).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes    = fs.Int("nodes", 16, "number of sprint-capable nodes")
		policy   = fs.String("policy", "all", "dispatch policy: round-robin|least-loaded|sprint-aware|hedged|all")
		requests = fs.Int("requests", 100000, "open-loop trace length")
		rate     = fs.Float64("rate", 0, "fleet-wide arrival rate in req/s (0 = ≈85% of sustained capacity)")
		work     = fs.Float64("work", 2, "mean single-core work per request in seconds")
		seed     = fs.Int64("seed", 12345, "trace seed (0 selects the default 12345)")
		queue    = fs.Int("queue", 256, "per-node queue bound (in service + queued)")
		hedgeS   = fs.Float64("hedge-s", 1, "hedged policy: duplicate a request unfinished after this many seconds (0 selects the default 1)")
		workers  = fs.Int("workers", 0, "engine pool size (0 = GOMAXPROCS, 1 = serial)")

		shardWorkers = fs.Int("shard-workers", 0, "shard each simulation's event loop across this many concurrent per-worker loops with racks as the shard boundary; parallelizes only plain round-robin runs (no probabilistic admission, scenario, trace, reliability, or workload) and is otherwise a no-op; results are byte-identical at any count (0 or 1 = classic single loop)")

		exactQ     = fs.Bool("exact-quantiles", false, "buffer and sort every latency for exact quantiles at any scale (default: exact up to 131072 requests, streaming histogram above)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep or the -convert-trace conversion to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile after the sweep or the -convert-trace conversion to this file")

		coordination = fs.String("coordination", "none", "rack coordination: none|uncoordinated|token-permit|probabilistic|all")
		rackSize     = fs.Int("rack-size", 0, "nodes per rack power domain (0 = default 8; needs -coordination)")
		rackBudgetW  = fs.Float64("rack-budget-w", 0, "provisioned power per rack in watts (0 = nominal for all nodes + sprint headroom for a quarter)")
		rackBufferJ  = fs.Float64("rack-buffer-j", 0, "rack ultracap ride-through energy in joules (0 = one §6 ultracap bank per rack)")
		permits      = fs.Int("permits", 0, "token-permit coordination: concurrent sprint permits per rack (0 = derive from the budget)")
		recoveryS    = fs.Float64("recovery-s", 0, "breaker recovery window in seconds (0 = default 2)")

		scenarioPath = fs.String("scenario", "", "JSON scenario file: load phases/ramps, ambient swings, node classes, churn (supersedes -requests and -rate)")

		replayPath   = fs.String("replay", "", "replay a recorded request trace (JSONL or CSV of arrival_s, work_s, optional width/tenant/class) instead of synthesizing arrivals; -policy all and -coordination all sweep the same rows")
		workloadPath = fs.String("workload", "", "JSON multi-tenant workload spec: SLO classes, tenant populations, admission control, dequeue discipline (combine with -scenario to ride its phases)")
		convertTrace = fs.String("convert-trace", "", "read a flight-recorder JSONL recording and write its arrivals as a replayable CSV trace to -replay-out, then exit")
		replayOut    = fs.String("replay-out", "", "destination file for -convert-trace")

		timeoutS      = fs.Float64("timeout-s", 0, "client-side per-request timeout in seconds; an expired attempt retries with exponential backoff (0 disables timeouts)")
		maxRetries    = fs.Int("max-retries", 0, "retries per request before it terminally times out (needs -timeout-s or -fault-prob; 0 = no retries)")
		retryBackoffS = fs.Float64("retry-backoff-s", 0, "base retry backoff in seconds, doubling per attempt with seeded jitter (needs -timeout-s or -fault-prob; 0 = default 0.1)")
		retryBudget   = fs.Float64("retry-budget", 0, "fleet-wide retry budget in tokens/s — a token-bucket cap on retry rate; an empty bucket sheds the request (needs -timeout-s or -fault-prob; 0 = unbudgeted)")
		retryBurst    = fs.Float64("retry-burst", 0, "retry-budget bucket depth in tokens (needs -retry-budget; 0 = max(1, budget))")
		grayFrac      = fs.Float64("gray-frac", 0, "fraction of nodes made gray stragglers — alive but slowed (0 disables gray failures)")
		graySlowdown  = fs.Float64("gray-slowdown", 0, "service-time multiplier on gray nodes (needs -gray-frac; 0 = default 4)")
		faultProb     = fs.Float64("fault-prob", 0, "probability a completed service faults and the client must retry (0 disables transient faults)")

		tracePath       = fs.String("trace", "", "attach the flight recorder and stream the recording as JSONL to this file, overwritten in place; a failed run removes it, a killed one leaves it part new, part old (records one run: pick a single -policy and -coordination)")
		traceLevel      = fs.String("trace-level", "decisions", "flight-recorder capture level: decisions|full (needs -trace)")
		counterfactualK = fs.Int("counterfactual-k", 0, "record this many rejected alternatives per decision and probe their counterfactual finish times (0 = default 3; needs -trace)")
		timelineWindowS = fs.Float64("timeline-window-s", 0, "timeline sample window in seconds (0 = default 5; needs -trace)")
		traceSummary    = fs.Bool("trace-summary", false, "after the report, print the top regret decisions and a per-window p99 sparkline (needs -trace)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Reject incoherent flag combinations instead of silently ignoring
	// them: a flag that only parameterizes a subsystem the other flags
	// switched off is a user error worth a loud answer.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["convert-trace"] != set["replay-out"] {
		fmt.Fprintln(stderr, "fleetsim: -convert-trace and -replay-out go together (read a recording, write a replayable trace)")
		return 2
	}
	if set["convert-trace"] {
		// A conversion reads only its two files, and may be profiled;
		// every other flag would be silently ignored.
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "convert-trace", "replay-out", "cpuprofile", "memprofile":
			default:
				if conflict == "" {
					conflict = f.Name
				}
			}
		})
		if conflict != "" {
			fmt.Fprintf(stderr, "fleetsim: -%s conflicts with -convert-trace (conversion runs no simulation)\n", conflict)
			return 2
		}
		stop, err := profiling.StartCPU(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "fleetsim:", err)
			return 1
		}
		code := convertRecording(*convertTrace, *replayOut, stdout, stderr)
		stop()
		if code == 0 {
			if err := profiling.WriteHeap(*memProfile); err != nil {
				fmt.Fprintln(stderr, "fleetsim:", err)
				code = 1
			}
		}
		return code
	}
	if set["permits"] && *coordination != "token-permit" && *coordination != "all" {
		fmt.Fprintf(stderr, "fleetsim: -permits only applies to token-permit coordination (got -coordination %s)\n", *coordination)
		return 2
	}
	for _, f := range []string{"rack-size", "rack-budget-w", "rack-buffer-j", "recovery-s"} {
		if set[f] && *coordination == "none" {
			fmt.Fprintf(stderr, "fleetsim: -%s requires rack coordination (-coordination uncoordinated|token-permit|probabilistic|all)\n", f)
			return 2
		}
	}
	if set["hedge-s"] && *policy != "hedged" && *policy != "all" {
		fmt.Fprintf(stderr, "fleetsim: -hedge-s only applies to the hedged policy (got -policy %s)\n", *policy)
		return 2
	}
	for _, f := range []string{"max-retries", "retry-backoff-s", "retry-budget"} {
		if set[f] && !set["timeout-s"] && !set["fault-prob"] {
			fmt.Fprintf(stderr, "fleetsim: -%s parameterizes retries, but nothing triggers them (add -timeout-s or -fault-prob)\n", f)
			return 2
		}
	}
	if set["retry-burst"] && !set["retry-budget"] {
		fmt.Fprintln(stderr, "fleetsim: -retry-burst sizes the retry-budget bucket (add -retry-budget)")
		return 2
	}
	if set["gray-slowdown"] && !set["gray-frac"] {
		fmt.Fprintln(stderr, "fleetsim: -gray-slowdown needs gray nodes to slow (add -gray-frac)")
		return 2
	}
	if *scenarioPath != "" {
		for _, f := range []string{"requests", "rate"} {
			if set[f] {
				fmt.Fprintf(stderr, "fleetsim: -%s conflicts with -scenario (the scenario file owns the load profile)\n", f)
				return 2
			}
		}
	}
	if *replayPath != "" {
		for _, f := range []string{"scenario", "workload", "trace", "requests", "rate", "work"} {
			if set[f] {
				fmt.Fprintf(stderr, "fleetsim: -%s conflicts with -replay (the trace owns the load profile)\n", f)
				return 2
			}
		}
	}
	if *workloadPath != "" {
		for _, f := range []string{"requests", "rate", "work", "trace"} {
			if set[f] {
				fmt.Fprintf(stderr, "fleetsim: -%s conflicts with -workload (the workload spec owns the load profile)\n", f)
				return 2
			}
		}
	}
	for _, f := range []string{"trace-level", "counterfactual-k", "timeline-window-s", "trace-summary"} {
		if set[f] && *tracePath == "" {
			fmt.Fprintf(stderr, "fleetsim: -%s parameterizes the flight recorder (add -trace out.jsonl)\n", f)
			return 2
		}
	}
	if *tracePath != "" && (*policy == "all" || *coordination == "all") {
		fmt.Fprintf(stderr, "fleetsim: -trace records a single run; pick one -policy and one -coordination (got -policy %s, -coordination %s)\n",
			*policy, *coordination)
		return 2
	}
	var traceCfg sprinting.TraceConfig
	if *tracePath != "" {
		lvl, err := sprinting.ParseTraceLevel(*traceLevel)
		if err != nil {
			fmt.Fprintln(stderr, "fleetsim:", err)
			return 2
		}
		if lvl == sprinting.TraceOff {
			fmt.Fprintln(stderr, "fleetsim: -trace-level off contradicts -trace (drop -trace to disable the recorder)")
			return 2
		}
		traceCfg = sprinting.TraceConfig{Level: lvl, TopK: *counterfactualK, WindowS: *timelineWindowS}
	}

	var policies []sprinting.FleetPolicy
	if *policy == "all" {
		policies = sprinting.FleetPolicies()
	} else {
		p, err := sprinting.ParseFleetPolicy(*policy)
		if err != nil {
			fmt.Fprintln(stderr, "fleetsim:", err)
			return 2
		}
		policies = []sprinting.FleetPolicy{p}
	}

	var coords []sprinting.RackCoordination
	if *coordination == "all" {
		coords = sprinting.RackCoordinations()
	} else {
		c, err := sprinting.ParseRackCoordination(*coordination)
		if err != nil {
			fmt.Fprintln(stderr, "fleetsim:", err)
			return 2
		}
		coords = []sprinting.RackCoordination{c}
	}
	rackMode := len(coords) > 1 || coords[0] != sprinting.RackNoCoordination

	// The mode's input files own the load: a replay trace, a workload
	// spec, a scenario. Every run then shares one config built from the
	// flags; -requests and -rate keep their defaults whenever a file owns
	// the load, and the file supersedes them.
	var (
		rows  []sprinting.TraceRequest
		wspec *sprinting.FleetWorkload
		scen  *sprinting.FleetScenario
	)
	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			fmt.Fprintln(stderr, "fleetsim:", err)
			return 1
		}
		rows, err = sprinting.ParseRequestTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "fleetsim: %s: %v\n", *replayPath, err)
			return 1
		}
	}
	if *workloadPath != "" {
		wspec = new(sprinting.FleetWorkload)
		if code := readJSON(*workloadPath, wspec, stderr); code != 0 {
			return code
		}
	}
	if *scenarioPath != "" {
		scen = new(sprinting.FleetScenario)
		if code := readJSON(*scenarioPath, scen, stderr); code != 0 {
			return code
		}
		// Class declarations size the fleet; an explicit -nodes that
		// disagrees is rejected like the other scenario conflicts rather
		// than silently overridden.
		if classNodes := scen.Nodes(); set["nodes"] && classNodes > 0 && classNodes != *nodes {
			fmt.Fprintf(stderr, "fleetsim: -nodes %d conflicts with the scenario's classes (%d nodes); drop -nodes or fix the class counts\n",
				*nodes, classNodes)
			return 2
		}
	}
	var specs []sprinting.FleetSpec
	for _, p := range policies {
		for _, c := range coords {
			cfg := sprinting.DefaultFleetConfig(p)
			cfg.Nodes = *nodes
			cfg.Requests = *requests
			cfg.ArrivalRatePerS = *rate
			cfg.MeanWorkS = *work
			cfg.Seed = *seed
			cfg.QueueCap = *queue
			cfg.HedgeDelayS = *hedgeS
			cfg.ExactQuantiles = *exactQ
			cfg.Coordination = c
			cfg.RackSize = *rackSize
			cfg.RackPowerBudgetW = *rackBudgetW
			cfg.RackBufferJ = *rackBufferJ
			cfg.SprintPermits = *permits
			cfg.BreakerRecoveryS = *recoveryS
			cfg.Reliability = sprinting.FleetReliability{
				TimeoutS: *timeoutS, MaxRetries: *maxRetries, RetryBackoffS: *retryBackoffS,
				RetryBudgetPerS: *retryBudget, RetryBurst: *retryBurst,
				GrayFrac: *grayFrac, GraySlowdownX: *graySlowdown, FaultProb: *faultProb,
			}
			cfg.Workers = *shardWorkers
			cfg.Trace = traceCfg
			specs = append(specs, sprinting.FleetSpec{Config: cfg, Scenario: scen, Workload: wspec, Replay: rows})
		}
	}
	// Every spec is legal before anything is announced, profiled or run.
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			fmt.Fprintln(stderr, "fleetsim:", err)
			return 1
		}
	}
	// The recording streams to its file while the run proceeds. Until it
	// is complete and closed, recFile stays set, and any exit removes the
	// partial file. -trace-summary reads a regular file back after the
	// run; for any other destination the run keeps a copy to read.
	var (
		recFile *outFile
		kept    *bytes.Buffer
	)
	if *tracePath != "" {
		f, err := createInPlace(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, "fleetsim:", err)
			return 1
		}
		recFile = f
		defer func() {
			if recFile != nil {
				recFile.Close()
				recFile.remove()
			}
		}()
		specs[0].Config.Trace.Writer = f
		if *traceSummary && !f.regular {
			kept = new(bytes.Buffer)
			specs[0].Config.Trace.Writer = io.MultiWriter(f, kept)
		}
	}

	stopProfile, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(stderr, "fleetsim:", err)
		return 1
	}
	defer stopProfile()

	switch {
	case scen != nil:
		// The scenario report prints after the run: its header names the
		// node count the run resolved.
	case rows != nil:
		fmt.Fprintf(stdout, "replay %s: %d recorded arrivals, %d nodes (seed %d)\n\n",
			*replayPath, len(rows), *nodes, *seed)
	case wspec != nil:
		fmt.Fprintf(stdout, "workload %s: %d classes, %d tenants, %d nodes (seed %d)\n\n",
			*workloadPath, len(wspec.Classes), len(wspec.Tenants), *nodes, *seed)
	default:
		fmt.Fprintf(stdout, "fleet: %d nodes, %d requests at %.2f req/s (mean work %.1f s, seed %d)\n\n",
			*nodes, *requests, specs[0].Config.EffectiveRatePerS(), *work, *seed)
	}
	// Every mode is a sweep over the policy × coordination grid; a traced
	// run is a grid of one, which Map runs on this goroutine.
	metrics, err := sprinting.Map(ctx, specs,
		func(ctx context.Context, spec sprinting.FleetSpec) (sprinting.FleetMetrics, error) {
			m, _, err := sprinting.RunFleet(ctx, spec)
			return m, err
		}, *workers)
	if err != nil {
		fmt.Fprintln(stderr, "fleetsim:", err)
		return 1
	}
	if f := recFile; f != nil {
		recFile = nil
		if err := f.Close(); err != nil {
			f.remove()
			fmt.Fprintf(stderr, "fleetsim: %s: %v\n", *tracePath, err)
			return 1
		}
	}
	if err := profiling.WriteHeap(*memProfile); err != nil {
		fmt.Fprintln(stderr, "fleetsim:", err)
		return 1
	}
	if scen != nil {
		printScenarioReport(*scenarioPath, *scen, metrics, stdout)
	} else {
		if metrics[0].ApproxQuantiles {
			fmt.Fprintln(stdout, "quantiles: streaming log-scale histogram (within 1.81%; mean/max exact) — use -exact-quantiles to buffer")
		}
		printRunTable(stdout, rackMode, metrics)
		switch {
		case rows != nil || wspec != nil:
			// Replay and workload reports end at their tables.
		case rackMode:
			fmt.Fprintln(stdout, "\nuncoordinated sprints can trip the rack breaker; token permits make trips impossible by construction")
		default:
			fmt.Fprintln(stdout, "\nsprint-aware dispatch routes on thermal headroom; hedging trades duplicated energy for tail latency")
		}
	}
	if *traceSummary {
		return printTraceSummary(stdout, stderr, *tracePath, kept)
	}
	return 0
}
