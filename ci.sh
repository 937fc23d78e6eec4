#!/bin/sh
# Verification in tiers. `./ci.sh` runs every tier in the order below;
# `./ci.sh <tier>` runs that one tier alone; an unknown name fails and
# lists the valid ones. Each tier builds the tools it runs, and all of
# them share one temporary directory that is removed on exit.
set -eux

tiers="test audit server deferred_verify robustness serving_chaos diagnostics analytic perf verify_fastpath telemetry lab overlay ledger coverage loc"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
diagdir="$work/diag"
labdir="$work/lab"
mkdir -p "$diagdir" "$labdir"

# Tier-1 verification: vet, build, and the full test suite under the race
# detector (the netsim receiver pool and obs instruments are concurrent).
tier_test() {
fmt_diff=$(gofmt -l .)
if [ -n "$fmt_diff" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt_diff" >&2
	exit 1
fi
go vet ./...
go build ./...
# -shuffle=on randomizes test and subtest order so inter-test state
# dependencies cannot hide; failures print the seed to reproduce.
go test -race -shuffle=on ./...
}

# Audit tier: every exported identifier in internal/ is referenced by a
# non-test file outside its package, or named with a reason in
# internal/audit/testdata/unreferenced_allow.txt. The audit type-checks the
# module and the standard library from source (about 15 s under the race
# detector, 3 s without), so it skips under -race and runs here instead.
tier_audit() {
go test -count=1 -run TestUnreferencedExports ./internal/audit
}

# Server tier: the whole serving package three times over under the race
# detector at three widths. Publish runs a stream's work on the caller's
# goroutine under the stream's lock, the flusher takes that lock with
# TryLock, and Close and Kill wait out in-flight publishes and join the
# signer loop (a goroutine with a timer, internal/server/hold.go). These
# tests fail on a data race between publishers of one stream, on a stream's
# blocks leaving out of order, on a goroutine left behind, on a signature
# landing after Kill, on a hold that ignores the measured root rate, and on
# a batch that waits out its hold after its fill target (the 1 + rate·hold
# roots the hold waits for) is in, or spends past the signature bound.
tier_server() {
go test -race -count=3 -cpu 1,2,4 ./internal/server
}

# Deferred-verify tier: a BatchVerifyQueue pass verifies its distinct
# checks on up to GOMAXPROCS goroutines. -cpu runs the queue's tests, and the
# stream and serve tests that resolve it, at several widths, so the parallel
# branch runs under the race detector even on a 1-CPU runner.
tier_deferred_verify() {
go test -race -cpu 1,2,4 -run 'BatchVerifyQueue|SigCache' ./internal/crypto
go test -race -cpu 1,4 ./internal/stream ./internal/serve
}

# Robustness tier: a short seeded chaos soak under the race detector, then
# a fuzz smoke pass over the attacker-facing decoders: the packet, both
# framings, and the batch-signature blob inside a packet's signature field.
tier_robustness() {
go run -race ./cmd/mcsim -chaos -n 24 -receivers 6 -chaosseeds 2 >/dev/null
go test -fuzz=FuzzDecode -fuzztime=10s -run='^$' ./internal/packet
go test -fuzz=FuzzFrameReader -fuzztime=10s -run='^$' ./internal/transport
go test -fuzz=FuzzMuxFrameReader -fuzztime=10s -run='^$' ./internal/transport
go test -fuzz=FuzzBatchBlob -fuzztime=10s -run='^$' ./internal/crypto
}

# Serving-chaos tier: kill/restart the serving daemon across three cycles
# with connection faults injected, under the race detector. The harness
# asserts its own invariants (no forged authentications, session resume
# replayed catch-up, faults actually fired) and exits non-zero otherwise.
tier_serving_chaos() {
go run -race ./cmd/mcserved -chaos -cycles 3 -streams 4 -n 8 -blocks 4 \
	-rate 300us -kill-after 250ms -batch 16 -flush 30ms \
	-conn-reset 0.02 -conn-stall 0.01 -chaos-seed 7 -key ci-chaos >/dev/null
}

# Diagnostics tier: a small lossy run must produce a root-cause report that
# mcreport can re-read, and two identical-seed traces must diff empty.
tier_diagnostics() {
go run ./cmd/mcsim -scheme emss -n 20 -p 0.25 -receivers 8 -seed 5 \
	-trace "$diagdir/a.jsonl" -report "$diagdir/rep.json" >/dev/null
go run ./cmd/mcsim -scheme emss -n 20 -p 0.25 -receivers 8 -seed 5 \
	-trace "$diagdir/b.jsonl" >/dev/null
go run ./cmd/mcreport -scheme emss -n 20 "$diagdir/a.jsonl" >/dev/null
go run ./cmd/mcreport -scheme emss -n 20 -diff "$diagdir/a.jsonl" "$diagdir/b.jsonl"
test -s "$diagdir/rep.json"
test -s "$diagdir/rep.json.md"
}

# Analytic tier: one exact evaluator (depgraph.ExactAuthProbChannel), and it
# stays one. The burst table carries an exact number in every row, the
# markovgap table equals its golden byte for byte, the widest case the
# special-case evaluators it replaced accepted (E_{4,4}, n=300: a 16-bit
# frontier) still answers inside 2 s, and every q_min but TESLA's comes from
# the scheme's own graph: no Go file imports internal/analysis, the deleted
# package of closed forms, and the Rohatgi chain's q_min is labelled exact.
tier_analytic() {
go build -o "$diagdir/mcfig" ./cmd/mcfig
go build -o "$diagdir/mcgraph" ./cmd/mcgraph
"$diagdir/mcfig" -fig burst > "$diagdir/burst.txt"
if grep -n 'n/a' "$diagdir/burst.txt"; then
	echo "analytic tier: the burst table has a row without an exact value" >&2
	exit 1
fi
"$diagdir/mcfig" -fig markovgap | cmp - cmd/mcfig/testdata/markovgap.golden
timeout 2 "$diagdir/mcgraph" -scheme emss -n 300 -m 4 -d 4 -p 0.3 -q | grep -q 'q_min=[0-9.]*, exact'
if grep -rn '"mcauth/internal/analysis"' --include='*.go' .; then
	echo "analytic tier: a closed-form q_min package is imported again" >&2
	exit 1
fi
go run ./cmd/mcsim -scheme rohatgi -receivers 10 | grep -q '(exact)'
}

# Perf tier: compile and run every benchmark once so the bench harness
# cannot bit-rot; real measurements come from `go run ./benchmark`.
tier_perf() {
go test -run='^$' -bench=. -benchtime=1x . >/dev/null
}

# Verify fast-path tier: the zero-alloc guards (AllocsPerRun on the
# ...Into/scratch/cached paths — they skip under -race, so this is their
# only enforced run), then the verify benchmarks and the daemon's per-packet
# receive loop (BenchmarkServeLoop: one op is one packet) and one simulated
# block (BenchmarkNetsimBlock: 50 receivers of a 100-packet EMSS block) at a
# fixed iteration count with allocs/op ceilings. The ceilings are what the
# index-addressed verifier, with its own reused event buffer, achieves (a
# 128-packet block: rohatgi 3, emss 14, augchain 14, authtree 24, signeach
# 28; netsim 446: receivers in chunks of 128, one scratch and one verifier
# per chunk, both per-index rows of every receiver cut from one array), with
# headroom for the runtime's own jitter, not for a map, a per-packet event
# slice, a per-receiver verifier or per-receiver rows coming back. The
# serving-configuration verify (BenchmarkVerifyServing: a 128-packet block
# whose one signature is shared over K roots, through the signature cache
# and the deferred batch-verify queue) makes 21 allocs/op for signeach at
# K = 16 and 64, and 880 and 3056 for authtree at K = 16 and 64; each is
# held to about 1.3 times that: 28, 1150 and 4000. The Monte-Carlo estimator
# (BenchmarkMonteCarloAuthProb: 1000 trials in two shards on one worker) is
# held to 64: it makes 18 — the shard plan, one vertex order per call, and per
# shard a generator, two tallies and the lane words — so the order or the
# lane scratch moving into the per-shard closure's trial loop, or a per-trial
# allocation, trips it. Its bursty twin (BenchmarkMonteCarloAuthProbBursty:
# 20 000 trials in 40 shards, lane-native Gilbert-Elliott) makes 170 the same
# way and is held to 220, which a per-group allocation in the lane sampler
# (313 groups of 64 trials) trips as well. The server's publish path
# (BenchmarkPublish: one op is one message of the mixed rotation over 8
# streams, at 1 and 2 publishers) makes 2 allocs/op over 4096 messages —
# the block's slabs and batch signatures amortized over its 8 messages —
# and is held to 3, the nearest whole number above 1.3 times that. It runs
# at 4096x, not 100x, so that batches fill and sign inside the timed loop.
# The sender (BenchmarkAuthenticate: one op is one 128-packet block) builds
# each block from a few slabs — packets, carried hashes, digests, and for
# TESLA one byte array of chain keys, MACs and bootstrap payload — plus one
# content buffer: rohatgi 6 allocs/op, emss and augchain 7, authtree 9,
# tesla 11, and signeach 131, 128 of them ed25519.Sign's own output. Each
# is held to about 1.3 times that: 8, 9, 12, 14 and 170, which a
# per-packet allocation coming back trips for every scheme but signeach.
# Timing is not gated.
tier_verify_fastpath() {
go test -count=1 -run='AllocFree|SteadyState' ./internal/crypto ./internal/verifier
{
	go test -run='^$' -bench='Benchmark(Authenticate|Verify|VerifyServing|ServeLoop|NetsimBlock|MonteCarloAuthProb(Bursty)?)($|/)' -benchtime=100x -benchmem .
	go test -run='^$' -bench='BenchmarkPublish/' -benchtime=4096x -benchmem .
} | awk '
		/^Benchmark(Authenticate|Verify|ServeLoop|NetsimBlock|MonteCarloAuthProb|Publish)/ {
			for (i = 3; i < NF; i++) if ($(i + 1) == "allocs/op") allocs = $i
			ceil = 64
			if ($1 ~ /rohatgi/) ceil = 16
			if ($1 ~ /emss|augchain/) ceil = 32
			if ($1 ~ /tesla/) ceil = 80
			if ($1 ~ /ServeLoop/) ceil = 16
			if ($1 ~ /NetsimBlock/) ceil = 580
			if ($1 ~ /MonteCarloAuthProb/) ceil = 64
			if ($1 ~ /MonteCarloAuthProbBursty/) ceil = 220
			if ($1 ~ /Publish/) ceil = 3
			if ($1 ~ /VerifyServing\/signeach/) ceil = 28
			if ($1 ~ /VerifyServing\/authtree\/K=16/) ceil = 1150
			if ($1 ~ /VerifyServing\/authtree\/K=64/) ceil = 4000
			if ($1 ~ /Authenticate\/rohatgi/) ceil = 8
			if ($1 ~ /Authenticate\/(emss|augchain)/) ceil = 9
			if ($1 ~ /Authenticate\/authtree/) ceil = 12
			if ($1 ~ /Authenticate\/tesla/) ceil = 14
			if ($1 ~ /Authenticate\/signeach/) ceil = 170
			if (allocs + 0 > ceil) {
				printf "verify-bench gate: %s at %s allocs/op exceeds ceiling %d\n", $1, allocs, ceil
				bad = 1
			}
		}
		END { exit bad }
	'
}

# Telemetry tier: the trace JSONL schema goldens (the one record every
# sink writes and obs.ReadSpans reads: spans.golden.jsonl pins the serving
# tier's lines, an interchange format; trace.golden.jsonl one line per
# lifecycle kind), a flight-recorder smoke under serving chaos — the dump
# must render as a post-mortem containing at least one complete
# sender->authenticate block lifecycle — and the tracing-overhead gate:
# with a trace sink attached but disabled, BenchmarkVerify may not slow
# down by more than 2% vs no sink at all. -count interleaves off/disabled
# pairs; the gate takes the best paired delta, so a systematic tracing tax
# fails every pair while one-off scheduler noise fails none. The enabled
# ring's paired delta is printed beside it, ungated: the cost of telemetry
# switched on, as a measured number.
tier_telemetry() {
go test -count=1 -run 'TestSpanGoldenSchema|TestTraceGoldenSchema' ./internal/obs
go test -count=1 -run 'TestGoldenFlightReport|TestFlightReportContent' ./cmd/mcreport
go run ./cmd/mcserved -chaos -cycles 2 -streams 2 -n 8 -blocks 6 \
	-rate 300us -kill-after 250ms -batch 8 -flush 30ms \
	-conn-reset 0.01 -chaos-seed 11 -key ci-flight -min-auth 0.2 \
	-slo-p99 5s -slo-min-auth 0.2 -flight "$diagdir/flight.jsonl" >/dev/null
test -s "$diagdir/flight.jsonl"
go run ./cmd/mcreport -flight "$diagdir/flight.jsonl" > "$diagdir/flight.txt"
grep 'complete sender->authenticate:' "$diagdir/flight.txt" \
	| awk -F'authenticate: ' '{ n = $2 + 0 } END { if (n < 1) { print "flight smoke: no complete block lifecycle in the dump"; exit 1 } }'
go test -run='^$' -bench='BenchmarkVerifySpanOverhead/' -benchtime=500x -count=5 . \
	| awk '
		/^BenchmarkVerifySpanOverhead\/off/      { off[++no] = $3 + 0 }
		/^BenchmarkVerifySpanOverhead\/disabled/ { dis[++nd] = $3 + 0 }
		/^BenchmarkVerifySpanOverhead\/enabled/  { en[++ne] = $3 + 0 }
		END {
			if (no == 0 || nd != no || ne != no) { print "span-overhead gate: missing benchmark output"; exit 1 }
			best = 1e9; on = 1e9
			for (i = 1; i <= no; i++) {
				d = dis[i] / off[i] - 1; if (d < best) best = d
				d = en[i] / off[i] - 1; if (d < on) on = d
			}
			printf "span-overhead gate: best paired delta %+.2f%% over %d pairs\n", 100 * best, no
			printf "span-overhead (informational): enabled ring, best paired delta %+.2f%%\n", 100 * on
			if (best > 0.02) { print "span-overhead gate: disabled tracing exceeds 2% overhead in every pair"; exit 1 }
		}
	'
}

# Lab tier: the bundled example sweep must run at two worker counts with
# byte-identical artifacts, render a dashboard, and pass the committed
# regression gates.
tier_lab() {
go build -o "$labdir/mclab" ./cmd/mclab
"$labdir/mclab" run examples/lab/basic.json -out "$labdir/w1" -workers 1 -stamp ci >/dev/null
"$labdir/mclab" run examples/lab/basic.json -out "$labdir/w4" -workers 4 -stamp ci >/dev/null
diff -r "$labdir/w1" "$labdir/w4"
"$labdir/mclab" render -out "$labdir/w1" -md "$labdir/dashboard.md" -html "$labdir/dashboard.html"
test -s "$labdir/dashboard.md"
test -s "$labdir/dashboard.html"
"$labdir/mclab" check -out "$labdir/w1"

# Churn sweep: the serving tier's session-resume flow (subscriber leaves
# mid-run, a late joiner is caught up via ResumeFrom) must verify every
# message and pass the require_server_resume gate. Its own -out dir, since
# check gates only the latest run under a root.
"$labdir/mclab" run examples/lab/churn.json -out "$labdir/churn" -workers 4 -stamp ci >/dev/null
"$labdir/mclab" check -out "$labdir/churn"
}

# Overlay tier: the relay fan-out path. The relay control-frame decoder
# (resume hellos + MCRQ repair requests share one wire) gets a fuzz smoke;
# a 10^5-receiver run through a 3-level tree with a correlated lossy edge
# must produce byte-identical summaries at -workers 1, 2 and 8, and verify
# its signature once, not once per receiver; and the overlay lab sweep must
# pass the require_overlay_gain gate — relays serving signature repairs must
# measurably raise the downstream authenticated fraction over passive
# forwarding.
tier_overlay() {
go test -fuzz=FuzzRelayFrame -fuzztime=10s -run='^$' ./internal/transport
go build -o "$labdir/mcsim" ./cmd/mcsim
go build -o "$labdir/mclab" ./cmd/mclab
overlay_run() {
	w=$1
	shift
	"$labdir/mcsim" -overlay -scheme emss -n 8 -p 0.1 -receivers 100000 \
		-depth 2 -fanout 4 -edgep 0.5 -relays -workers "$w" \
		-summary "$labdir/overlay-w$w.json" "$@" >/dev/null
}
overlay_run 1 -metrics "$labdir/overlay-metrics.json"
overlay_run 2
overlay_run 8
diff "$labdir/overlay-w1.json" "$labdir/overlay-w2.json"
diff "$labdir/overlay-w1.json" "$labdir/overlay-w8.json"
# The run's receivers share one signature-verdict memo (verifier.Env.Sigs),
# so the public-key operations of a run are bounded by its signature-carrying
# wire packets — one, for an EMSS block — not by its 10^5 receivers. A count
# that repeats exactly, not a timing.
awk -F'[:,]' '
	/"crypto.verify_ops"/ { ops = $2 + 0; seen = 1 }
	END {
		if (!seen || ops != 1) {
			printf "overlay memo gate: crypto.verify_ops = %d for one signature packet and 100000 receivers\n", ops
			exit 1
		}
	}
' "$labdir/overlay-metrics.json"
"$labdir/mclab" run examples/lab/overlay.json -out "$labdir/overlay" -workers 4 -stamp ci >/dev/null
"$labdir/mclab" check -out "$labdir/overlay"
}

# Ledger tier: every scheme reports through verifier.Recorder, so every
# scheme's trace is a function of the run: with one worker, three runs of
# each scheme the catalogue lists (mcsim prints catalog.IDs() in its -scheme
# help) must write byte-identical traces; with more, only each receiver's
# subsequence is fixed. Writer and reader agree on every line of every
# scheme's trace: mcreport's skipped_trace_lines is omitted when zero, so its
# presence in the JSON report means some line the sink wrote did not read
# back as a trace record. And no scheme is dark: authtree's report, which is
# built from the trace, authenticates packets.
tier_ledger() {
go build -o "$labdir/mcsim" ./cmd/mcsim
go build -o "$labdir/mcreport" ./cmd/mcreport
schemes=$("$labdir/mcsim" -h 2>&1 | sed -n 's/.*scheme: \([a-z|]*\) (default.*/\1/p' | tr '|' ' ')
test -n "$schemes"
for s in $schemes; do
	for r in 1 2 3; do
		"$labdir/mcsim" -scheme "$s" -n 32 -p 0.2 -receivers 12 -seed 9 -workers 1 \
			-trace "$labdir/trace-$s-$r.jsonl" >/dev/null
	done
	cmp "$labdir/trace-$s-1.jsonl" "$labdir/trace-$s-2.jsonl"
	cmp "$labdir/trace-$s-1.jsonl" "$labdir/trace-$s-3.jsonl"
	"$labdir/mcreport" -json "$labdir/trace-$s.report.json" "$labdir/trace-$s-1.jsonl" >/dev/null
	if grep skipped_trace_lines "$labdir/trace-$s.report.json"; then
		echo "ledger smoke: mcreport skipped lines of the $s trace mcsim wrote" >&2
		exit 1
	fi
done
"$labdir/mcsim" -scheme authtree -n 16 -p 0.2 -receivers 20 -report "$labdir/authtree-rep.json" \
	| awk -F'authenticated=' '/^packets: / { n = $2 + 0 } END { if (n < 1) { print "ledger smoke: authtree report authenticates nothing"; exit 1 } }'
}

# Coverage tier: per-package statement coverage from a quick -short pass
# and the aggregate figure. Informational only — no threshold is enforced.
tier_coverage() {
go test -short -count=1 -coverprofile="$diagdir/cover.out" ./...
go tool cover -func="$diagdir/cover.out" | tail -n 1
}

# LOC tier: net Go lines of this change against its parent commit, non-test
# and test summed separately — the figure a simplicity PR reports in
# CHANGES.md, computed the same way every time. Test means _test.go files
# plus internal/schemetest: the shared conformance checks take a *testing.T
# but cannot live in _test.go files, which other packages cannot import
# (non-test code uses only its Payloads generator). A dirty tree is measured
# against HEAD (untracked files count as added), a clean one against
# HEAD~1. Informational only: no threshold, and no failure when there is
# no parent to compare with. Three riders on the same base: the same figure
# per package directory (what a simplicity PR quotes in CHANGES.md), the
# non-test line count of every cmd/* main package, so thin-main drift is
# visible, and whether the change touched the benchmark (frozen outside a
# benchmark PR). A fourth needs no base: the non-test files that import a
# concrete scheme package from outside the scheme packages, the catalogue,
# the frozen benchmark and the public surface — each is a place that picks
# a scheme without internal/catalog.
tier_loc() {
loc_base=HEAD
if git diff --quiet HEAD -- '*.go' 2>/dev/null &&
	[ -z "$(git ls-files --others --exclude-standard -- '*.go' 2>/dev/null)" ]; then
	loc_base=HEAD~1
fi
loc_numstat=$({
	git diff --numstat "$loc_base" -- '*.go'
	git ls-files --others --exclude-standard -- '*.go' | while read -r f; do
		printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
	done
} 2>/dev/null)
printf '%s\n' "$loc_numstat" | awk -v base="$loc_base" '
	NF == 3 { net = $1 - $2; if ($3 ~ /_test\.go$|^internal\/schemetest\//) test += net; else code += net; seen = 1 }
	END {
		if (seen) printf "net Go LOC vs %s: non-test %+d, test %+d\n", base, code, test
		else print "net Go LOC: nothing to compare (no parent commit or no Go change)"
	}
'
printf '%s\n' "$loc_numstat" | awk '
	NF == 3 {
		dir = $3; if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		if ($3 ~ /_test\.go$|^internal\/schemetest\//) test[dir] += $1 - $2; else code[dir] += $1 - $2
		dirs[dir] = 1
	}
	END { for (d in dirs) printf "net Go LOC: %s non-test %+d, test %+d\n", d, code[d], test[d] }
' | sort
for d in cmd/*/; do
	printf 'cmd LOC (non-test): %s %s\n' "$d" "$(find "$d" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"
done
if ! git rev-parse --verify -q "$loc_base" >/dev/null; then
	:
elif git diff --quiet "$loc_base" -- benchmark BENCHMARK.json; then
	echo "benchmark/ and BENCHMARK.json: not edited vs $loc_base"
else
	echo "benchmark/ or BENCHMARK.json EDITED vs $loc_base (only a benchmark PR may)"
fi
printf 'concrete-scheme importers outside internal/catalog: %s\n' "$(
	grep -rl --include='*.go' '"mcauth/internal/scheme/' . |
		grep -v -e '_test\.go$' -e '^\./internal/scheme/' -e '^\./internal/catalog/' \
			-e '^\./benchmark/' -e '^\./examples/' -e '^\./mcauth\.go$' |
		sort | tr '\n' ' ' || true
)"
}

case "${1-}" in
"")
	for t in $tiers; do
		"tier_$t"
	done
	;;
*)
	case " $tiers " in
	*" $1 "*) "tier_$1" ;;
	*)
		echo "ci.sh: unknown tier '$1'; valid tiers: $tiers" >&2
		exit 2
		;;
	esac
	;;
esac
