#!/bin/sh
# CI entry point: full build + test suite, then a smoke test of the compile
# service's persistence guarantees — a second limec invocation against the
# same --cache-dir must load the kernel from the artifact store and answer
# the sweep from the tunestore instead of re-timing all eight configs.
set -eu

cd "$(dirname "$0")"

echo "== one clock =="
# durations, deadlines and rolling windows read Lime_support.Clock
# (monotonic): process CPU time is never a timer, and Unix time is only
# the epoch labels the daemon stamps in lib/server/server.ml
if grep -rn --include='*.ml' --include='*.mli' 'Sys\.time' lib bin bench; then
  echo "FAIL: Sys.time under lib/, bin/ or bench/; time with Lime_support.Clock"
  exit 1
fi
if grep -rn --include='*.ml' --include='*.mli' 'Unix\.gettimeofday' lib bin \
     | grep -v '^lib/server/server\.ml:'; then
  echo "FAIL: Unix.gettimeofday outside the daemon's epoch labels; time with Lime_support.Clock"
  exit 1
fi

echo "== one pricer =="
# every kernel launch is priced through Gpusim.Autotune.launch: profiling
# a launch and binding its arrays happen only inside lib/gpusim/
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'Profile\.profile' -e 'Model\.binding_of_shape' lib bin bench \
     | grep -v '^lib/gpusim/'; then
  echo "FAIL: a launch priced outside lib/gpusim/; use Gpusim.Autotune.launch"
  exit 1
fi

echo "== one wall-clock harness =="
# bench/ regenerates the paper's evaluation from modelled seconds; the
# toolchain's own wall-clock cost is measured by perfbench/ alone
if grep -rn -i 'bechamel' bench; then
  echo "FAIL: a micro-benchmark harness under bench/; measure wall clock in perfbench/"
  exit 1
fi
# nor does it read a clock or stream latencies into a sketch
if grep -rn -e 'Clock\.' -e 'Sketch\.' -e 'gettimeofday' bench; then
  echo "FAIL: bench/ times something; measure wall clock in perfbench/"
  exit 1
fi

echo "== one JSON reader =="
# every JSON text is read with Lime_support.Json.parse; no second parser,
# value type or field scraper under lib/, bin/, bench/ or test/
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'parse_json' -e 'json_field_' -e 'find_sub' -e 'type json' \
     lib bin bench test \
     | grep -v '^lib/support/json\.ml:'; then
  echo "FAIL: a JSON reader outside lib/support/json.ml; use Lime_support.Json.parse"
  exit 1
fi

echo "== one evaluator =="
# lib/ir/interp.ml is the only IR evaluator: its compiled statements
# return a status code for return/break/continue, so control-flow
# exceptions can only belong to a second evaluator
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'Return_exn' -e 'Break_exn' -e 'Continue_exn' lib bin; then
  echo "FAIL: control-flow exceptions under lib/ or bin/; lib/ir/interp.ml is the one evaluator"
  exit 1
fi
# the compiler folds constant arithmetic only through
# Lime_ir.Interp.fold_literal, so a kernel computes what the host does:
# no rounding or wrapping helpers in the kernel pipeline or the rewrites
if grep -rnE --include='*.ml' --include='*.mli' \
     '(Value|V)\.(i32|f32|i8|u16)\b' lib/core lib/rewrite; then
  echo "FAIL: operator semantics under lib/core/ or lib/rewrite/; fold with Lime_ir.Interp.fold_literal"
  exit 1
fi
# one structural mapper: Ir.map_expr / Ir.map_stmt
if grep -rnE --include='*.ml' --include='*.mli' \
     '(let|and)( rec)? (map_expr|map_stmt)\b' lib bin bench \
     | grep -v '^lib/ir/ir\.ml:'; then
  echo "FAIL: a map_expr/map_stmt outside lib/ir/ir.ml; use Ir.map_expr / Ir.map_stmt"
  exit 1
fi

echo "== one firing model =="
# lib/runtime/engine.ml is the one place that knows how a stage fires and
# what it costs: the resource legs and their names, the crossing phases
# and the host-cost pricing live there, and the placement layer prices a
# stage with the engine's functions on the engine's compiled stages
if grep -rn --include='*.ml' \
     -e '"link:' -e '"dev:' -e 'Comm\.transfer_phases' -e 'Device\.jvm_time' lib \
     | grep -v '^lib/runtime/engine\.ml:'; then
  echo "FAIL: a firing leg or firing cost built outside lib/runtime/engine.ml; use Engine.device_legs / Engine.host_firing"
  exit 1
fi
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'Kernel\.extract' -e 'Memopt\.optimize' lib/sched; then
  echo "FAIL: lib/sched/ compiles a kernel; probe the engine's stages (Engine.stages)"
  exit 1
fi

echo "== one step shape =="
# a rewrite step is one function that walks to its first site once
# (Rewrite.kind); the search dedups on a structural digest, never on
# printed IR
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'legality_check' -e '\.applicable' -e 'Rewrite\.Illegal' \
     -e 'exception Illegal' lib bin test; then
  echo "FAIL: the applicable/legality_check/apply step triple is back; a step is one Rewrite.kind"
  exit 1
fi
if grep -n 'stmt_str' lib/rewrite/search.ml; then
  echo "FAIL: lib/rewrite/search.ml prints IR; dedup on Search.signature's digest"
  exit 1
fi

echo "== one beam core =="
# the rewrite-schedule and placement searches share Lime_support.Beam: its
# loop is the only beam prune, and its event type and observer registry
# are the only ones either search reports through
if grep -n -e 'Hooks\.create' -e 'type event' \
     lib/rewrite/search.ml lib/sched/search.ml; then
  echo "FAIL: a search declares its own events or observers; emit through Lime_support.Beam"
  exit 1
fi
if grep -rn --include='*.ml' --include='*.mli' \
     'List\.filteri (fun i _ -> i < width)' lib bin \
     | grep -v '^lib/support/beam\.ml:'; then
  echo "FAIL: a beam prune outside lib/support/beam.ml; run the search through Beam.run"
  exit 1
fi

echo "== one access analysis =="
# the optimizer, the profiler and the OpenCL printer read one access
# analysis (Lime_gpu.Access: the class type, the index classifier, the
# affine-lane test and the view resolver); the IR has one expr_vars and
# the JSON emitters one string escaper.  Kernel.classify (offload
# verdict) and Counters.classify (roofline bound) decide other things.
if grep -rn --include='*.ml' --include='*.mli' 'let expr_vars\b' lib bin test \
     | grep -v '^lib/ir/ir\.ml:'; then
  echo "FAIL: an expr_vars copy outside lib/ir/ir.ml; use Ir.expr_vars"
  exit 1
fi
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'PThreadLinear' -e 'classify_index' -e 'resolve_access' lib bin test; then
  echo "FAIL: a second access class or view resolver; use Lime_gpu.Access"
  exit 1
fi
if grep -rn --include='*.ml' -e 'let classify\b' -e 'let affine_lane\b' lib bin test \
     | grep -v -e '^lib/core/access\.ml:' \
         -e '^lib/core/kernel\.ml:[0-9]*:let classify (md : Ir\.modul)' \
         -e '^lib/gpusim/counters\.ml:[0-9]*:let classify c ='; then
  echo "FAIL: an index classifier outside lib/core/access.ml; use Access.classify"
  exit 1
fi
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'json_escape' -e 'let escape s\b' lib bin test \
     | grep -v '^lib/support/json\.ml:'; then
  echo "FAIL: a JSON string escaper outside lib/support/json.ml; use Lime_support.Json.escape"
  exit 1
fi

echo "== one thread-dependence analysis per state =="
# the rewrite search and the Fig 8 sweep compute a kernel body's
# thread-dependence table once and hand it to both the memory analysis
# and the launch profile, which compute it themselves only when no table
# is passed; "does this expression mention v?" is Ir.mentions, which
# builds no variable list
if grep -rn --include='*.ml' 'Taint\.thread_dependent' lib bin \
     | grep -v -e '^lib/core/memopt\.ml:' -e '^lib/gpusim/profile\.ml:' \
         -e '^lib/rewrite/search\.ml:' -e '^lib/gpusim/autotune\.ml:'; then
  echo "FAIL: Taint.thread_dependent called outside Memopt.analyze, Profile.profile, the rewrite search and the Fig 8 sweep; pass the table"
  exit 1
fi
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'List\.mem .*(Ir\.expr_vars' -e 'List\.exists .*(Ir\.expr_vars' lib; then
  echo "FAIL: a membership test over Ir.expr_vars under lib/; use Ir.mentions"
  exit 1
fi

echo "== one search memo =="
# the rewrite searches of one kernel share one Lime_rewrite.Search memo,
# keyed by the whole kernel: the service hands every rewrite search the
# memo of the last kernel it searched (Service.beam_schedule), and in
# lib/rewrite/search.ml a structural step's walk runs only in
# Search.structural and a body is analyzed only in Search.facts (a new
# child's facts and the baseline lookup), so no walk or analysis bypasses
# the memo; a replay, which searches nothing, analyzes its one body itself
if grep -nE '(^|[^.[:alnum:]_])Search\.search|Lime_rewrite\.Search\.search' \
     lib/service/*.ml | grep -v '~memo'; then
  echo "FAIL: lib/service/ runs a rewrite search without ~memo; pass the service's memo"
  exit 1
fi
if awk '/^let /{f=$2}
        /Structural attempt/ && f != "structural" {print FILENAME":"FNR": "$0; bad=1}
        /body_of / && !/^let body_of / && f != "facts" && f != "replay" \
          {print FILENAME":"FNR": "$0; bad=1}
        END {exit !bad}' lib/rewrite/search.ml; then
  echo "FAIL: a structural walk or body analysis outside Search.structural and Search.facts; go through the memo"
  exit 1
fi
if grep -rn --include='*.ml' 'Search\.body_of' lib bin examples; then
  echo "FAIL: Search.body_of called outside lib/rewrite/search.ml; a search analyzes its own bodies"
  exit 1
fi

echo "== one Fig 8 sweep =="
# Gpusim.Autotune.sweep_with is the one sweep loop (one analysis, every
# entry carrying its counters); the service replays or re-runs it through
# the same tuned path as the beam and placement searches, and a winner's
# headline is its entry's counters, never re-priced or stored
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'cached_sweep' -e 'pool_sweep' -e 'counters_for' -e 'tr_headline' \
     lib bin examples; then
  echo "FAIL: a second sweep path or a stored headline; sweep through Autotune.sweep_with and Service.sweep"
  exit 1
fi
for f in $(grep -rl --include='*.ml' 'Pool\.map' lib bin examples); do
  if grep -n 'fig8_configs' "$f"; then
    echo "FAIL: $f maps its pool over Memopt.fig8_configs; pass Pool.map to Autotune.sweep_with"
    exit 1
  fi
done

echo "== one pipeline clock =="
# Lime_runtime.Schedule.overlapped_makespan is the one pipelined-firing
# clock: the engine, the placement cost model and the §5.3 projection all
# price their stages with it; the closed-form three-stage model is gone
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'pipelined_time' -e 'serial_time' -e 'stages_of_phases' \
     -e 'overlap_speedup' -e 'worthwhile' lib bin bench examples test; then
  echo "FAIL: a second pipeline clock; price the stages with Schedule.overlapped_makespan"
  exit 1
fi

echo "== one wire layout =="
# lib/server/wire.ml holds the daemon's only binary layout: the spans a
# Result frame carries are Wire fields, not a second codec's opaque
# string, and no other module under lib/ or bin/ defines byte primitives
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'spans_to_wire' -e 'spans_of_wire' -e 'wire_format_version' \
     lib bin test; then
  echo "FAIL: a second span codec; a Result frame's spans are Wire fields"
  exit 1
fi
if grep -rn --include='*.ml' --include='*.mli' \
     -e 'let put_u' -e 'let get_u' -e 'put_f64' -e 'get_f64' lib bin \
     | grep -v '^lib/server/wire\.ml:'; then
  echo "FAIL: byte primitives outside lib/server/wire.ml; encode through Wire"
  exit 1
fi

echo "== one connection path =="
# the daemon reactor keeps Wire and HTTP clients in one connection record
# on one list, with one accept, read, flush and close; every socket read
# lands in the one buffer the server allocates (the self-pipe wakeup is
# the only other write)
srv=lib/server/server.ml
if grep -n -e 'hconn' -e 'sr_hconns' "$srv"; then
  echo "FAIL: a second connection type in $srv; Wire and HTTP clients share conn"
  exit 1
fi
if [ "$(grep -c 'Unix\.accept' "$srv")" -gt 1 ] \
   || [ "$(grep 'Unix\.write_substring' "$srv" | grep -vc 'sr_pipe_w')" -gt 1 ]; then
  grep -n -e 'Unix\.accept' -e 'Unix\.write_substring' "$srv"
  echo "FAIL: a second accept or write loop in $srv; use accept / flush_conn"
  exit 1
fi
if [ "$(grep -c 'Bytes\.create' "$srv")" -gt 1 ]; then
  grep -n 'Bytes\.create' "$srv"
  echo "FAIL: a buffer allocated per read in $srv; read into sr_buf"
  exit 1
fi

echo "== front end: no forced minor GC =="
# an array over 256 words seeded with a young token forces a full minor
# collection (caml_make_vect) on every compile: the parser walks the
# lexer's token list instead of copying it into an array
if grep -rn --include='*.ml' \
     -e 'Array\.of_list' -e 'Array\.make.*\(tok\|Token\.\|Lexer\.\|located\)' \
     lib/frontend; then
  echo "FAIL: a token array under lib/frontend/; walk the token list or seed with an old block"
  exit 1
fi

echo "== interpreter: scalar helpers inline =="
# dune's dev profile (which perfbench builds) compiles with -opaque, so a
# call to Value.f32 or Value.i32 is never inlined and boxes its float;
# the interpreter uses its own copies
if grep -n -e 'Value\.\(f32\|i32\)\b' -e 'open Value\b' -e 'Value\.(' \
     lib/ir/interp.ml; then
  echo "FAIL: lib/ir/interp.ml calls Value.f32/Value.i32; use its local f32/i32"
  exit 1
fi

echo "== one buffer printer =="
# lib/core/opencl.ml prints straight into the one Buffer.t its state
# carries, in time linear in its output: no emitter interprets a format
# string (float_lit calls the runtime's "%.9g" formatter directly), and
# only the facts builder make_gen walks the kernel body (tail_return_only
# counts the returns of one inline block)
if grep -n -e 'printf' -e 'Fmt\.' -e 'Format\.' lib/core/opencl.ml; then
  echo "FAIL: a formatted string in lib/core/opencl.ml; append to the printer's buffer"
  exit 1
fi
if awk '/^(let|and) /{f=$2; if (f == "rec") f=$3}
        /iter_stmt/ && f != "make_gen" && f != "tail_return_only" \
          {print FILENAME":"FNR": "$0; bad=1}
        END {exit !bad}' lib/core/opencl.ml; then
  echo "FAIL: a kernel-body walk outside Opencl.make_gen; read the per-kernel facts"
  exit 1
fi

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== compile-service smoke test =="
cache_dir=$(mktemp -d)
trap 'rm -rf "$cache_dir"' EXIT

sweep() {
  dune exec --no-build bin/limec.exe -- examples/lime/nbody.lime \
    -w NBody.computeForces --sweep gtx8800 --shape particles=4096x4 \
    --cache-dir "$cache_dir"
}

cold=$(sweep)
echo "$cold" | grep -q "tunestore: miss" \
  || { echo "FAIL: cold run should miss the tunestore"; echo "$cold"; exit 1; }

# a store file in an older format is a miss: the sweep re-tunes and
# rewrites it in the current format
tune_file=$(ls "$cache_dir"/tune/*.tune)
sed -i '1s/.*/lime-tunestore 4/' "$tune_file"
stale=$(sweep)
echo "$stale" | grep -q "tunestore: miss" \
  || { echo "FAIL: an old-format tunestore file should miss"; echo "$stale"; exit 1; }
[ "$(head -n 1 "$tune_file")" = "lime-tunestore 5" ] \
  || { echo "FAIL: the re-tune should rewrite $tune_file as format 5"; head -n 1 "$tune_file"; exit 1; }

warm=$(sweep)
echo "$warm" | grep -q "tunestore: hit" \
  || { echo "FAIL: warm run should hit the tunestore"; echo "$warm"; exit 1; }
echo "$warm" | grep -q "kernel cache: hit (disk)" \
  || { echo "FAIL: warm run should load the kernel from disk"; echo "$warm"; exit 1; }
# a tunestore hit times only the stored best: exactly one ranking row
rows=$(echo "$warm" | grep -c " ms$" || true)
[ "$rows" -eq 1 ] \
  || { echo "FAIL: warm sweep should re-time 1 config, got $rows"; echo "$warm"; exit 1; }

echo "== parallel batch smoke test =="
# compile every example program in one --jobs 4 batch, twice against the
# same --cache-dir: the cold run must compile all four, the warm run must
# load all four kernels from the on-disk artifact store
batch_cache="$cache_dir/batch"
manifest="$cache_dir/examples.batch"
cat > "$manifest" <<'EOF'
# every example program: FILE WORKER [CONFIG]
examples/lime/nbody.lime     NBody.computeForces
examples/lime/matmul.lime    MatMul.multiply
examples/lime/saxpy.lime     Saxpy.run
examples/lime/histogram.lime Hist.maxBinCount   all  # trailing comment
EOF

batch() {
  dune exec --no-build bin/limec.exe -- \
    --batch "$manifest" --jobs 4 --cache-dir "$batch_cache" --stats
}

cold_batch=$(batch)
echo "$cold_batch" | grep -q "batch: 4 compiled, 0 failed (jobs 4," \
  || { echo "FAIL: cold batch should compile all 4 examples"; echo "$cold_batch"; exit 1; }
echo "$cold_batch" | grep -q "^lime_kcache_misses 4$" \
  || { echo "FAIL: cold batch should miss 4 times"; echo "$cold_batch"; exit 1; }

warm_batch=$(batch)
echo "$warm_batch" | grep -q "batch: 4 compiled, 0 failed (jobs 4," \
  || { echo "FAIL: warm batch should compile all 4 examples"; echo "$warm_batch"; exit 1; }
echo "$warm_batch" | grep -q "^lime_kcache_disk_hits 4$" \
  || { echo "FAIL: warm batch should load all 4 kernels from disk"; echo "$warm_batch"; exit 1; }
for kernel in NBody.computeForces MatMul.multiply Saxpy.run Hist.maxBinCount; do
  echo "$warm_batch" | grep -q "kernel $kernel" \
    || { echo "FAIL: warm batch missing kernel $kernel"; echo "$warm_batch"; exit 1; }
done

echo "== trace smoke test =="
# a traced run must produce loadable Chrome trace-event JSON covering the
# whole stack: the compile pipeline span and the simulated PCIe leg of a
# device firing
trace_json="$cache_dir/trace.json"
dune exec --no-build bin/limec.exe -- examples/lime/nbody.lime \
  -w NBody.computeForces --run NBodyApp.main --arg 16 --arg 1 \
  --trace "$trace_json" > /dev/null 2>&1

[ -s "$trace_json" ] \
  || { echo "FAIL: --trace wrote nothing"; exit 1; }
case "$(head -c 1 "$trace_json")" in
  "{") ;;
  *) echo "FAIL: trace is not a JSON object"; head -c 200 "$trace_json"; exit 1 ;;
esac
grep -q '"traceEvents"' "$trace_json" \
  || { echo "FAIL: trace lacks a traceEvents array"; exit 1; }
grep -q '"pipeline.compile"' "$trace_json" \
  || { echo "FAIL: trace lacks the pipeline.compile span"; exit 1; }
grep -q '"comm.pcie"' "$trace_json" \
  || { echo "FAIL: trace lacks the comm.pcie firing leg"; exit 1; }
# brackets/braces must balance outside of strings — a cheap well-formedness
# check with no JSON tooling required
cat > "$cache_dir/jsoncheck.ml" <<'EOF'
let () =
  let json = In_channel.with_open_text Sys.argv.(1) In_channel.input_all in
  let depth = ref 0 and in_str = ref false and esc = ref false in
  String.iter
    (fun ch ->
      if !in_str then
        if !esc then esc := false
        else if ch = '\\' then esc := true
        else (if ch = '"' then in_str := false)
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then exit 1
        | _ -> ())
    json;
  if !depth <> 0 || !in_str then exit 1
EOF
ocaml "$cache_dir/jsoncheck.ml" "$trace_json" \
  || { echo "FAIL: trace JSON is not well-formed"; exit 1; }

echo "== counters smoke test =="
counters=$(dune exec --no-build bin/limec.exe -- examples/lime/nbody.lime \
  -w NBody.computeForces --counters gtx8800 --shape particles=4096x4)
echo "$counters" | grep -q "roofline: " \
  || { echo "FAIL: --counters lacks a roofline verdict"; echo "$counters"; exit 1; }
echo "$counters" | grep -q "coalesced" \
  || { echo "FAIL: --counters lacks the transaction split"; echo "$counters"; exit 1; }

echo "== compile-daemon smoke test =="
# launch the daemon, compile through it twice (the second request must be
# served from the daemon's warm cache), then SIGTERM it: a graceful drain
# must remove the socket and exit 0
daemon_sock="$cache_dir/limed.sock"
daemon_cache="$cache_dir/daemon"
daemon_log="$cache_dir/limed.log"
dune exec --no-build bin/limec.exe -- --daemon "$daemon_sock" \
  --cache-dir "$daemon_cache" > "$daemon_log" 2>&1 &
daemon_pid=$!

# wait (bounded) for the listening socket to appear
i=0
while [ ! -S "$daemon_sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] \
    || { echo "FAIL: daemon never opened $daemon_sock"; cat "$daemon_log"; exit 1; }
  kill -0 "$daemon_pid" 2>/dev/null \
    || { echo "FAIL: daemon died during startup"; cat "$daemon_log"; exit 1; }
  sleep 0.1
done

connect() {
  dune exec --no-build bin/limec.exe -- --connect "$daemon_sock" \
    examples/lime/nbody.lime -w NBody.computeForces
}

cold_connect=$(connect 2> "$cache_dir/connect1.err")
echo "$cold_connect" | grep -q "kernel NBody.computeForces" \
  || { echo "FAIL: daemon compile missing the kernel"; echo "$cold_connect"; exit 1; }
grep -q "server cache: miss (compiled)" "$cache_dir/connect1.err" \
  || { echo "FAIL: first daemon request should compile"; cat "$cache_dir/connect1.err"; exit 1; }

warm_connect=$(connect 2> "$cache_dir/connect2.err")
grep -q "server cache: hit (memory)" "$cache_dir/connect2.err" \
  || { echo "FAIL: second daemon request should hit the warm cache"; cat "$cache_dir/connect2.err"; exit 1; }
[ "$cold_connect" = "$warm_connect" ] \
  || { echo "FAIL: warm daemon output differs from cold"; exit 1; }

# byte-identical to a local compile of the same program
local_out=$(dune exec --no-build bin/limec.exe -- examples/lime/nbody.lime \
  -w NBody.computeForces)
[ "$local_out" = "$cold_connect" ] \
  || { echo "FAIL: daemon output differs from local compilation"; exit 1; }

kill -TERM "$daemon_pid"
daemon_status=0
wait "$daemon_pid" || daemon_status=$?
[ "$daemon_status" -eq 0 ] \
  || { echo "FAIL: daemon exit $daemon_status after SIGTERM"; cat "$daemon_log"; exit 1; }
[ ! -S "$daemon_sock" ] \
  || { echo "FAIL: drained daemon left its socket behind"; exit 1; }
grep -q "limed: drained" "$daemon_log" \
  || { echo "FAIL: daemon log lacks the drain report"; cat "$daemon_log"; exit 1; }

echo "== observability-plane smoke test =="
# relaunch the daemon with the HTTP plane, an access log and a drain
# grace, run one traced compile through it, and check the whole
# observability surface: /healthz, /metrics, the access log's trace id
# appearing in the merged client trace, and the readiness flip on SIGTERM
obs_sock="$cache_dir/limed-obs.sock"
obs_log="$cache_dir/limed-obs.log"
access_log="$cache_dir/access.jsonl"
obs_trace="$cache_dir/connect-trace.json"
# a fresh cache dir: the traced compile must be cold, so the merged
# trace contains the daemon's pipeline spans, not just a cache hit
obs_cache="$cache_dir/obs-daemon"
flight_dump="$cache_dir/flight.jsonl"
dune exec --no-build bin/limec.exe -- --daemon "$obs_sock" \
  --cache-dir "$obs_cache" --http 0 --access-log "$access_log" \
  --flight-dump "$flight_dump" --slo availability:0.99 \
  --drain-grace 2 > "$obs_log" 2>&1 &
obs_pid=$!

i=0
while [ ! -S "$obs_sock" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] \
    || { echo "FAIL: observed daemon never opened $obs_sock"; cat "$obs_log"; exit 1; }
  kill -0 "$obs_pid" 2>/dev/null \
    || { echo "FAIL: observed daemon died during startup"; cat "$obs_log"; exit 1; }
  sleep 0.1
done

# the daemon logs the ephemeral port it bound: "limed: http on 127.0.0.1:PORT"
i=0
http_port=""
while [ -z "$http_port" ]; do
  http_port=$(sed -n 's/^limed: http on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$obs_log")
  [ -n "$http_port" ] && break
  i=$((i + 1))
  [ "$i" -le 100 ] \
    || { echo "FAIL: daemon never logged its HTTP port"; cat "$obs_log"; exit 1; }
  sleep 0.1
done

health=$(curl -fsS "http://127.0.0.1:$http_port/healthz")
[ "$health" = "ok" ] \
  || { echo "FAIL: /healthz said '$health', wanted 'ok'"; exit 1; }

dune exec --no-build bin/limec.exe -- --connect "$obs_sock" \
  examples/lime/nbody.lime -w NBody.computeForces --trace "$obs_trace" \
  > /dev/null 2> "$cache_dir/connect-trace.err"

[ -s "$obs_trace" ] \
  || { echo "FAIL: traced --connect wrote no trace"; cat "$cache_dir/connect-trace.err"; exit 1; }
ocaml "$cache_dir/jsoncheck.ml" "$obs_trace" \
  || { echo "FAIL: merged trace JSON is not well-formed"; exit 1; }
# the merged timeline spans both processes: client + daemon spans
for span in '"client.request"' '"server.request"' '"pipeline.compile"'; do
  grep -q "$span" "$obs_trace" \
    || { echo "FAIL: merged trace lacks the $span span"; exit 1; }
done

metrics=$(curl -fsS "http://127.0.0.1:$http_port/metrics")
for family in lime_server_requests_total lime_build_info; do
  echo "$metrics" | grep -q "$family" \
    || { echo "FAIL: /metrics lacks $family"; echo "$metrics"; exit 1; }
done

[ -f "$access_log" ] \
  || { echo "FAIL: daemon wrote no access log"; exit 1; }
[ "$(wc -l < "$access_log")" -eq 1 ] \
  || { echo "FAIL: access log should hold exactly 1 record"; cat "$access_log"; exit 1; }
ocaml "$cache_dir/jsoncheck.ml" "$access_log" \
  || { echo "FAIL: access-log record is not well-formed JSON"; cat "$access_log"; exit 1; }
# the record is correlated with the distributed trace we just merged
trace_id=$(sed -n 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/p' "$access_log")
[ -n "$trace_id" ] \
  || { echo "FAIL: access-log record lacks a trace id"; cat "$access_log"; exit 1; }
grep -q "$trace_id" "$obs_trace" \
  || { echo "FAIL: access-log trace id $trace_id not in the merged trace"; exit 1; }

# the SLO plane: after one good request the burn rate is zero and the
# daemon reports itself healthy
alertz=$(curl -fsS "http://127.0.0.1:$http_port/alertz")
echo "$alertz" | grep -q '"healthy":true' \
  || { echo "FAIL: /alertz not healthy after good traffic"; echo "$alertz"; exit 1; }
echo "$alertz" | grep -q '"name":"availability"' \
  || { echo "FAIL: /alertz lacks the availability SLO"; echo "$alertz"; exit 1; }

# induce an error burn: deadline-0 requests are admitted and expire before
# compilation, each counting as a bad event in both burn windows — on a
# freshly started daemon a 6/7 bad fraction trips the fast AND slow
# windows at once, so the availability alert fires immediately
burn=0
while [ "$burn" -lt 6 ]; do
  burn=$((burn + 1))
  if dune exec --no-build bin/limec.exe -- --connect "$obs_sock" \
       examples/lime/nbody.lime -w NBody.computeForces --deadline-ms 0 \
       > /dev/null 2>&1; then
    echo "FAIL: deadline-0 compile #$burn unexpectedly succeeded"; exit 1
  fi
done
i=0
while :; do
  alertz=$(curl -s "http://127.0.0.1:$http_port/alertz" || true)
  echo "$alertz" | grep -q '"healthy":false' && break
  i=$((i + 1))
  [ "$i" -le 100 ] \
    || { echo "FAIL: /alertz never fired under the deadline-0 burn"; echo "$alertz"; exit 1; }
  sleep 0.05
done
echo "$alertz" | grep -q '"state":"firing"' \
  || { echo "FAIL: /alertz is unhealthy but no SLO is firing"; echo "$alertz"; exit 1; }

# the alert doubles as a metric family, and the latency summary carries
# trace-id exemplars on its histogram buckets
metrics=$(curl -fsS "http://127.0.0.1:$http_port/metrics")
for family in lime_slo_state lime_slo_burn_rate \
              lime_server_request_seconds_summary \
              lime_process_start_time_seconds; do
  echo "$metrics" | grep -q "$family" \
    || { echo "FAIL: /metrics lacks $family"; exit 1; }
done
echo "$metrics" | grep -q '# {trace_id=' \
  || { echo "FAIL: /metrics buckets carry no trace exemplar"; exit 1; }

# the flight recorder retained the slowest request (the traced cold
# compile) with its span tree, and the deadline casualties as errors
slow=$(curl -fsS "http://127.0.0.1:$http_port/debug/slow")
echo "$slow" | grep -q "$trace_id" \
  || { echo "FAIL: /debug/slow lost the slowest request's trace"; echo "$slow"; exit 1; }
errors=$(curl -fsS "http://127.0.0.1:$http_port/debug/errors")
echo "$errors" | grep -q '"outcome":"deadline"' \
  || { echo "FAIL: /debug/errors lacks the deadline casualties"; echo "$errors"; exit 1; }
curl -fsS "http://127.0.0.1:$http_port/statusz" | grep -q '"flight":{' \
  || { echo "FAIL: /statusz lacks the flight-recorder block"; exit 1; }

# SIGQUIT: a post-mortem flight dump, while the daemon keeps serving
kill -QUIT "$obs_pid"
i=0
while ! { [ -s "$flight_dump" ] && grep -q "$trace_id" "$flight_dump"; } 2>/dev/null; do
  i=$((i + 1))
  [ "$i" -le 100 ] \
    || { echo "FAIL: SIGQUIT wrote no flight dump holding $trace_id"; cat "$flight_dump" 2>/dev/null; exit 1; }
  sleep 0.05
done
grep '"ring":"slow"' "$flight_dump" | grep -q "$trace_id" \
  || { echo "FAIL: slowest request $trace_id not in the dump's slow ring"; cat "$flight_dump"; exit 1; }
grep -q '"ring":"errors"' "$flight_dump" \
  || { echo "FAIL: flight dump has no errors-ring entries"; cat "$flight_dump"; exit 1; }
grep -q '"server.request"' "$flight_dump" \
  || { echo "FAIL: flight dump entries lack their span trees"; cat "$flight_dump"; exit 1; }
kill -0 "$obs_pid" 2>/dev/null \
  || { echo "FAIL: daemon died on SIGQUIT"; cat "$obs_log"; exit 1; }
post_quit=$(curl -fsS "http://127.0.0.1:$http_port/healthz")
[ "$post_quit" = "ok" ] \
  || { echo "FAIL: daemon not serving after SIGQUIT ('$post_quit')"; exit 1; }

# SIGTERM: the readiness probe must flip to draining within the grace
kill -TERM "$obs_pid"
i=0
drain_health=""
while [ "$drain_health" != "draining" ]; do
  drain_health=$(curl -s "http://127.0.0.1:$http_port/healthz" || true)
  [ "$drain_health" = "draining" ] && break
  i=$((i + 1))
  [ "$i" -le 100 ] \
    || { echo "FAIL: /healthz never flipped to draining (last: '$drain_health')"; cat "$obs_log"; exit 1; }
  sleep 0.02
done
obs_status=0
wait "$obs_pid" || obs_status=$?
[ "$obs_status" -eq 0 ] \
  || { echo "FAIL: observed daemon exit $obs_status after SIGTERM"; cat "$obs_log"; exit 1; }

echo "== bench JSON regression gate =="
# collect a quick perf snapshot, check it is well-formed JSON and
# byte-identical to the committed BENCH_quick.json (the file name sets the
# run's "name", so it is written as quick.json), then diff a fresh
# collection against it: a self-diff must report zero regressions
bench_json="$cache_dir/quick.json"
dune exec --no-build bench/main.exe -- --quick --seed 1 --json "$bench_json" \
  > /dev/null
[ -s "$bench_json" ] \
  || { echo "FAIL: --json wrote nothing"; exit 1; }
cmp "$bench_json" BENCH_quick.json \
  || { echo "FAIL: the quick collection differs from the committed BENCH_quick.json"; exit 1; }
grep -q '"schema": "lime-bench"' "$bench_json" \
  || { echo "FAIL: bench JSON lacks the schema header"; exit 1; }
ocaml "$cache_dir/jsoncheck.ml" "$bench_json" \
  || { echo "FAIL: bench JSON is not well-formed"; exit 1; }
dune exec --no-build bench/main.exe -- --quick --seed 1 --baseline "$bench_json" \
  > /dev/null \
  || { echo "FAIL: self-diff against the just-written baseline regressed"; exit 1; }
# the optimizer experiment is its own gate: it exits non-zero if the beam
# ever loses to the best Fig 8 configuration, or merely ties it on TMatMul
dune exec --no-build bench/main.exe -- optimize --quick > /dev/null \
  || { echo "FAIL: optimize experiment gate (beam vs fig8) regressed"; exit 1; }
# so is the multi-device experiment: placed must never lose to the best
# single device, must strictly beat it somewhere, and sinks stay bit-exact
dune exec --no-build bench/main.exe -- multidev --quick > /dev/null \
  || { echo "FAIL: multidev experiment gate (placed vs single) regressed"; exit 1; }

echo "== fuzz smoke test =="
# a fixed-seed budget through the three-way differential oracle: any
# interpreter/engine/OpenCL disagreement fails the build with a shrunk
# counterexample (the long-budget run is `dune build @fuzz`)
fuzz_out=$(dune exec --no-build bin/limefuzz.exe -- --count 40 --seed 1 --schedules 2)
echo "$fuzz_out" | grep -q "40 generated programs, 0 disagreements" \
  || { echo "FAIL: fuzz smoke found a disagreement"; echo "$fuzz_out"; exit 1; }
# the harness-has-teeth check: a deliberately nudged reference must be
# caught and shrunk — if the oracle goes blind, CI fails here, not later
dune exec --no-build bin/limefuzz.exe -- --selftest --count 10 --seed 1 \
  | grep -q "selftest ok" \
  || { echo "FAIL: fuzz oracle did not catch a nudged reference"; exit 1; }
# generated-program daemon traffic is gated in dune runtest: test_server "generated traffic"

echo "== optimizer smoke test =="
# a cold beam search must store its schedule; the warm rerun must replay it
# (not re-search) with identical output; and the beam must never lose to
# the best Fig 8 configuration on the same kernel
opt_cache="$cache_dir/opt"
optimize() {
  dune exec --no-build bin/limec.exe -- examples/lime/matmul.lime \
    -w MatMul.multiply --optimize "$1" --device gtx8800 \
    --shape packed=1024x32 --cache-dir "$opt_cache"
}

cold_opt=$(optimize beam)
echo "$cold_opt" | grep -q "tunestore: miss — searched, stored best schedule" \
  || { echo "FAIL: cold beam run should search and store"; echo "$cold_opt"; exit 1; }

warm_opt=$(optimize beam)
echo "$warm_opt" | grep -q "tunestore: hit — replayed stored schedule" \
  || { echo "FAIL: warm beam run should replay, not re-search"; echo "$warm_opt"; exit 1; }
# modulo provenance (cache lines, eval count vs "replayed"), the warm
# replay must reproduce the cold search byte-for-byte
strip_provenance() {
  grep -v '^tunestore:' | grep -v '^kernel cache:' \
    | sed -e 's/, [0-9]* evaluations)$/)/' -e 's/, replayed)$/)/'
}
[ "$(echo "$cold_opt" | strip_provenance)" = "$(echo "$warm_opt" | strip_provenance)" ] \
  || { echo "FAIL: warm beam output differs from cold"; exit 1; }

fig8_opt=$(optimize fig8)
beam_s=$(echo "$warm_opt" | sed -n 's/^optimize beam on .*: .* (\([0-9.e+-]*\) s modeled.*/\1/p')
fig8_s=$(echo "$fig8_opt" | sed -n 's/^optimize fig8 on .*: winner .* (\([0-9.e+-]*\) s modeled.*/\1/p')
[ -n "$beam_s" ] && [ -n "$fig8_s" ] \
  || { echo "FAIL: could not parse modeled times"; echo "$warm_opt"; echo "$fig8_opt"; exit 1; }
awk "BEGIN { exit !($beam_s <= $fig8_s) }" \
  || { echo "FAIL: beam ($beam_s s) lost to the Fig 8 winner ($fig8_s s)"; exit 1; }

echo "== multi-device smoke test =="
# a cold --multi-device auto run must search placements and store the
# winner; the warm rerun must replay it from the tunestore — and modulo
# provenance lines, reproduce the cold run byte-for-byte
sched_cache="$cache_dir/sched"
multidev() {
  dune exec --no-build bin/limec.exe -- examples/lime/nbody.lime \
    -w NBody.computeForces --run NBodyApp.main --arg 64 --arg 2 \
    --multi-device auto --explain --cache-dir "$sched_cache"
}

cold_md=$(multidev)
echo "$cold_md" | grep -q "tunestore: miss — searched .* placements, stored best" \
  || { echo "FAIL: cold multi-device run should search and store"; echo "$cold_md"; exit 1; }
echo "$cold_md" | grep -q "^placement " \
  || { echo "FAIL: cold multi-device run printed no placement"; echo "$cold_md"; exit 1; }

warm_md=$(multidev)
echo "$warm_md" | grep -q "tunestore: hit — replayed stored placement" \
  || { echo "FAIL: warm multi-device run should replay, not re-search"; echo "$warm_md"; exit 1; }
strip_sched_provenance() {
  grep -v '^tunestore:' | grep -v '^kernel cache:' \
    | grep -v '^placement search:' | grep -v '^placement replay:' \
    | grep -v '^placement '
}
[ "$(echo "$cold_md" | strip_sched_provenance)" = "$(echo "$warm_md" | strip_sched_provenance)" ] \
  || { echo "FAIL: warm multi-device output differs from cold"; exit 1; }

# a pinned SPEC must be honoured verbatim, and --devices must list the
# placement targets the searcher chooses from
spec_md=$(dune exec --no-build bin/limec.exe -- examples/lime/nbody.lime \
  -w NBody.computeForces --run NBodyApp.main --arg 64 --arg 2 \
  --multi-device "NBody.computeForces=gtx580")
echo "$spec_md" | grep -q "placements: .*NBody.computeForces=gtx580" \
  || { echo "FAIL: pinned placement SPEC not honoured"; echo "$spec_md"; exit 1; }
devices_out=$(dune exec --no-build bin/limec.exe -- --devices)
for dev in gtx8800 gtx580 hd5970 corei7; do
  echo "$devices_out" | grep -q "$dev" \
    || { echo "FAIL: --devices lacks $dev"; echo "$devices_out"; exit 1; }
done

echo "ci.sh: OK (cold sweep populated the cache; an old-format tunestore"
echo "        file was re-tuned; warm run served from it;"
echo "        --jobs 4 batch recompiled all examples warm from disk;"
echo "        traced run exported well-formed Chrome JSON;"
echo "        daemon served a warm cache hit and drained cleanly on SIGTERM;"
echo "        the observability plane answered /healthz and /metrics, logged"
echo "        one trace-correlated access record, merged the cross-process"
echo "        trace, and flipped readiness while draining;"
echo "        /alertz fired on a deadline-0 burn, the summary exposed"
echo "        exemplars, and SIGQUIT dumped the flight recorder with the"
echo "        slowest request's trace id while the daemon kept serving;"
echo "        bench JSON matched BENCH_quick.json byte for byte, and its"
echo "        self-diff and the beam-vs-fig8 gate showed no"
echo "        regressions; the differential fuzz smoke agreed three ways,"
echo "        and its selftest caught a nudged reference;"
echo "        beam schedule stored cold and replayed warm;"
echo "        multi-device placement stored cold, replayed warm byte-"
echo "        identically, honoured a pinned SPEC, and --devices listed"
echo "        every placement target)"
