(* The wall-clock benchmark.  One process, one domain, one workload per
   invocation:

     bench.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics with tracing off;
   with --trace 1 it measures once more with spans around every call
   into a layer and reports the per-layer metrics.  Every iteration is
   gated on the program's own checkers; a failed gate prints the result
   with correct=false and exits 1.  README.md has the metric tables. *)

module R = Shard.Runner
module E = Mcheck.Explorer
module M = Mcheck.Models

(* {1 Measured outcome of one iteration} *)

type outcome = {
  problems : string list;  (** gate failures; [] = correct *)
  attempted : int;  (** client ops issued (mcheck: executions run) *)
  completed : int;  (** acked singles + committed txs (mcheck: executions) *)
  vt : int;  (** virtual time of the run (mcheck: summed over executions) *)
  latencies : float array;  (** per completed op, submit to ack, in vt *)
  counts : (string * float) list;
      (** deterministic per-layer counts, reported as they are *)
  groups : Shard.Group.t array;  (** for the post-run checker call *)
}

(* The measured call of a workload, made by its set-up: calling it runs
   the simulation (and the program's checks); the closure it returns
   scores the report, outside the timed region. *)
type prepared = unit -> unit -> outcome

let fi = float_of_int
let sum_by f a = Array.fold_left (fun acc x -> acc + f x) 0 a

(* Nearest-rank percentile of a sorted sample. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q *. fi n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per a b = if b = 0. then 0. else a /. b

(* {1 The consensus backend, seen from outside}

   Every [decide] the replicated log makes goes through this wrapper.
   It counts calls and virtual time, puts a span around the call when
   tracing, and under the sensitivity probe runs each decision twice. *)

let calls = ref 0
let decide_vt = ref 0
let double_decide = ref false

let observed (module B : Rsm.Backend.S) : Rsm.Backend.t =
  (module struct
    let name = B.name

    let decide ~seed ~inputs =
      Span.with_ "backend.decide" (fun () ->
          incr calls;
          let ((_, vt) as r) = B.decide ~seed ~inputs in
          decide_vt := !decide_vt + vt;
          if !double_decide && B.decide ~seed ~inputs <> r then
            failwith "backend decide is not deterministic";
          r)
  end)

(* {1 Workloads} *)

let store_counts stats =
  let f g = fi (sum_by g stats) in
  [
    ("store.appends", f (fun (s : Store.Disk.stats) -> s.Store.Disk.appends));
    ("store.fsyncs", f (fun s -> s.Store.Disk.fsyncs));
    ("store.bytes", f (fun s -> s.Store.Disk.bytes_appended));
  ]

let shard_score (cfg : R.config) (r : R.report) () =
  let srs = r.R.shard_reports in
  let problems =
    (match r.R.engine_outcome with
    | Dsim.Engine.Quiescent -> []
    | _ -> [ "engine did not reach quiescence" ])
    @ List.concat_map
        (fun (sr : R.shard_report) ->
          let bad what l =
            if l = [] then []
            else [ Printf.sprintf "shard %d: %d %s" sr.R.sr_shard (List.length l) what ]
          in
          bad "order violations" sr.R.sr_violations
          @ bad "completeness violations" sr.R.sr_completeness
          @ bad "durability violations" sr.R.sr_durability
          @
          if sr.R.sr_digests_agree then []
          else [ Printf.sprintf "shard %d: replica digests differ" sr.R.sr_shard ])
        (Array.to_list srs)
    @ (if r.R.atomicity = [] then [] else [ "atomicity violations" ])
    @ if r.R.tx_completeness = [] then [] else [ "unfinished transactions" ]
  in
  let attempted = sum_by List.length cfg.R.ops in
  let completed = r.R.singles_acked + r.R.txs_committed in
  let stats = Array.concat (Array.to_list (Array.map (fun sr -> sr.R.sr_store_stats) srs)) in
  {
    problems;
    attempted;
    completed;
    vt = r.R.virtual_time;
    latencies = Array.of_list (r.R.single_latencies @ r.R.tx_latencies);
    counts =
      [
        ("netsim.sent", fi (sum_by (fun sr -> sr.R.sr_messages_sent) srs));
        ("netsim.delivered", fi (sum_by (fun sr -> sr.R.sr_messages_delivered) srs));
        ("rsm.slots", fi (sum_by (fun sr -> sr.R.sr_slots) srs));
        ("rsm.instances", fi (sum_by (fun sr -> sr.R.sr_instances) srs));
        ("rsm.cmds", fi (sum_by (fun sr -> sr.R.sr_applied) srs));
        ("shard.abort_rate", r.R.abort_rate);
        ("shard.txs_committed", fi r.R.txs_committed);
      ]
      @ store_counts stats;
    groups = r.R.groups;
  }

let shard_workload ~clients ~ops ~tx_pct ~arrival ?store ?inject
    ?(coordinator_crash = fun _ -> R.No_crash) () ~seed ~backend : prepared =
  let load =
    {
      Workload.Load.default with
      Workload.Load.clients;
      ops_per_client = ops;
      keys = 1024;
      zipf_s = 1.1;
      tx_pct;
      tx_span = 2;
      shards = 4;
      seed;
    }
  in
  let ops = Span.with_ "workload.gen" (fun () -> Workload.Load.gen_shard_ops load) in
  let base = R.default_config ~shards:4 ~ops in
  let cfg =
    {
      base with
      R.replicas = 3;
      backend;
      batch = 64;
      seed = Int64.of_int seed;
      arrival;
      store;
      inject;
      coordinator_crash;
      quiet = true;
    }
  in
  fun () ->
    let r = Span.with_ "shard.run" (fun () -> R.run cfg) in
    shard_score cfg r

(* Three ops per client: with two, the latency median sits on the knee
   between the first wave and the backlog (p45 ~500 vt, p55 ~2,300 vt)
   and moves by a third from one seed to the next. *)
let shard_closed ~clients =
  shard_workload ~clients ~ops:3 ~tx_pct:10 ~arrival:(R.Closed_loop { think = 10 }) ()

(* One replica of every shard crashes and restarts from its WAL, and the
   coordinator of ~2% of the transactions dies after prepare, leaving
   them to the recovery daemon. *)
let shard_open_faults ~seed =
  let inject (f : R.faults) =
    for s = 0 to 3 do
      let replica = (seed + s) mod 3 and at = 3_000 + (1_500 * s) in
      Dsim.Engine.schedule f.R.engine ~delay:at (fun () -> f.R.crash ~shard:s ~replica);
      Dsim.Engine.schedule f.R.engine ~delay:(at + 2_000) (fun () ->
          f.R.restart ~shard:s ~replica)
    done
  in
  let coordinator_crash txid =
    if Hashtbl.hash (seed, txid) mod 50 = 0 then R.After_prepare else R.No_crash
  in
  shard_workload ~clients:2_000 ~ops:10 ~tx_pct:20
    ~arrival:(R.Open_loop { mean_gap = 1_000. })
    ~store:Rsm.Runner.default_store_config ~inject ~coordinator_crash () ~seed

let rsm_durable_benor ~seed ~backend : prepared =
  let n = 5 in
  let ops =
    Span.with_ "workload.gen" (fun () ->
        Workload.Rsm_load.gen_ops ~seed:(Int64.of_int seed) ~clients:8 ~commands:300 ())
  in
  let crash_schedule, restart_schedule =
    Workload.Rsm_load.crash_restart_plan ~n ~crashes:1 ~down_for:2_000 ()
  in
  let base = Rsm.Runner.default_config ~n ~ops in
  let cfg =
    {
      base with
      Rsm.Runner.backend;
      batch = 1;
      seed = Int64.of_int seed;
      crash_schedule;
      restart_schedule;
      quiet = true;
      store = Some Rsm.Runner.default_store_config;
    }
  in
  fun () ->
    let r = Span.with_ "rsm.run" (fun () -> Rsm.Runner.run Workload.Rsm_load.kv_app cfg) in
    fun () ->
      let open Rsm.Runner in
      let bad what l = if l = [] then [] else [ Printf.sprintf "%d %s" (List.length l) what ] in
      {
        problems =
          (match r.engine_outcome with
          | Dsim.Engine.Quiescent -> []
          | _ -> [ "engine did not reach quiescence" ])
          @ bad "order violations" r.violations
          @ bad "completeness violations" r.completeness
          @ bad "durability violations" r.durability
          @ (if r.digests_agree then [] else [ "replica digests differ" ])
          @ if r.acked = r.submitted then [] else [ "unacked commands" ];
        attempted = r.submitted;
        completed = r.acked;
        vt = r.virtual_time;
        latencies = Array.of_list r.latencies;
        counts =
          [
            ("netsim.sent", fi r.messages_sent);
            ("netsim.delivered", fi r.messages_delivered);
            ("rsm.slots", fi r.slots);
            ("rsm.instances", fi r.instances);
            ("rsm.cmds", fi (Array.fold_left max 0 r.delivered));
          ]
          @ store_counts r.store_stats;
        groups = [||];
      }

(* The three sweeps and the counts they must reproduce exactly. *)
type sweep = {
  key : string;
  model : M.t;
  config : E.config;
  expect : E.report -> bool;
}

let dpor depth = { E.default_config with E.depth; reduction = E.Rdpor }

let clean execs (r : E.report) =
  r.E.r_executions = execs && r.E.r_violating = 0 && r.E.r_truncated = 0
  && (not r.E.r_capped) && r.E.r_audit_failures = []

let sweeps () =
  [
    {
      key = "benor";
      model = M.benor ~check_termination:true ();
      config = dpor 10;
      expect = (fun r -> r.E.r_executions = 8_208 && r.E.r_violating = 0);
    };
    { key = "toy_ac"; model = M.toy_ac ~check_termination:true (); config = dpor 12; expect = clean 11_374 };
    {
      key = "toy_ac_broken";
      model = M.toy_ac ~broken:true ~check_termination:true ();
      config = dpor 12;
      expect =
        (fun r ->
          r.E.r_executions = 11_374 && r.E.r_violating = 363 && r.E.r_counterexample <> None);
    };
  ]

(* The model checker has no clients: an op is one explored execution, and
   its latency is the virtual time of the execution's last scheduling
   choice, read through a pass-through oracle. *)
let with_end_times ends (m : M.t) =
  let make () =
    let inst = m.M.make () in
    let run (o : Dsim.Engine.oracle) =
      let last = ref 0 in
      let choose (c : Dsim.Engine.choice) =
        if c.Dsim.Engine.c_time > !last then last := c.Dsim.Engine.c_time;
        o.Dsim.Engine.choose c
      in
      Fun.protect
        ~finally:(fun () -> ends := fi !last :: !ends)
        (fun () -> inst.M.run { Dsim.Engine.choose })
    in
    { inst with M.run }
  in
  { m with M.make }

let mcheck_dpor ~seed:_ ~backend:_ : prepared =
  let ends = ref [] in
  let sweeps = List.map (fun s -> { s with model = with_end_times ends s.model }) (sweeps ()) in
  fun () ->
    let reports =
      List.map
        (fun s ->
          (s, Span.with_ ("mcheck." ^ s.key ^ ".explore") (fun () ->
                  E.explore ~jobs:1 ~config:s.config s.model)))
        sweeps
    in
    fun () ->
      let execs = List.fold_left (fun a (_, r) -> a + r.E.r_executions) 0 reports in
      let latencies = Array.of_list !ends in
      {
        problems =
          List.filter_map
            (fun (s, r) ->
              if s.expect r then None
              else
                Some
                  (Printf.sprintf "mcheck %s: %d executions, %d violating (pinned counts differ)"
                     s.key r.E.r_executions r.E.r_violating))
            reports;
        attempted = execs;
        completed = execs;
        vt = int_of_float (Array.fold_left ( +. ) 0. latencies);
        latencies;
        counts =
          List.concat_map
            (fun (s, r) ->
              let m k = "mcheck." ^ s.key ^ "." ^ k in
              [
                (m "executions", fi r.E.r_executions);
                (m "pruned", fi r.E.r_pruned);
                (m "truncated", fi r.E.r_truncated);
                (m "violating", fi r.E.r_violating);
              ])
            reports;
        groups = [||];
      }

let workloads =
  [
    ("shard-closed-20k", fun ~seed -> shard_closed ~clients:20_000 ~seed);
    ("shard-open-faults", fun ~seed -> shard_open_faults ~seed);
    ("rsm-durable-benor", fun ~seed -> rsm_durable_benor ~seed);
    ("mcheck-dpor", fun ~seed -> mcheck_dpor ~seed);
  ]

let backend_of = function
  | "rsm-durable-benor" -> Rsm.Backend.ben_or
  | _ -> Rsm.Backend.raft

(* {1 Measuring} *)

type iteration = {
  setup_s : float list;
  wall_s : float;
  heap_mb : float;  (** the process's peak heap after the measured call *)
  out : outcome;
  alloc_b : float;
  minor : int;
  major : int;
  checker_s : float;
}

let now = Unix.gettimeofday
let word_bytes = fi (Sys.word_size / 8)

(* Five set-up samples, each the mean of as many back-to-back set-ups as
   fill 20 ms, so that a set-up of a few microseconds still reads well
   above the clock's resolution.  They are taken after the measured call,
   so that their garbage never reaches the heap it measures. *)
let setup_samples setup =
  let sample () =
    let t0 = now () in
    let rec go k =
      ignore (Sys.opaque_identity (setup ()));
      let dt = now () -. t0 in
      if dt >= 0.02 then dt /. fi k else go (k + 1)
    in
    go 1
  in
  List.init 5 (fun _ -> sample ())

let deterministic o =
  String.concat " "
    (Printf.sprintf "attempted=%d completed=%d vt=%d lat=%s" o.attempted o.completed o.vt
       (Digest.to_hex (Digest.string (Marshal.to_string o.latencies [])))
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) o.counts)

let iterate ~seconds ~min_iters ~traced ~setup () =
  let t_start = now () in
  let rec loop i acc =
    if i >= min_iters && now () -. t_start >= seconds then List.rev acc
    else begin
      Span.run_id := i;
      calls := 0;
      decide_vt := 0;
      let measure = setup () in
      (* Every measured call starts from a compacted heap and an empty
         minor heap, so that iterations are alike. *)
      Gc.compact ();
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      let score = measure () in
      let wall_s = now () -. t0 in
      let g1 = Gc.quick_stat () in
      let heap_mb = fi g1.Gc.top_heap_words *. word_bytes /. 1048576. in
      let out = score () in
      let checker_s =
        if traced && out.groups <> [||] then begin
          let t = now () in
          Span.with_ "checker" (fun () ->
              Array.iter
                (fun g ->
                  ignore (Shard.Group.violations g);
                  ignore (Shard.Group.completeness g);
                  ignore (Shard.Group.durability g);
                  ignore (Shard.Group.digests_agree g))
                out.groups);
          now () -. t
        end
        else 0.
      in
      let out = { out with groups = [||] } in
      Gc.compact ();
      let setup_s = setup_samples setup in
      let words s = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
      let it =
        {
          setup_s;
          wall_s;
          heap_mb;
          out;
          alloc_b = (words g1 -. words g0) *. word_bytes;
          minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
          major = g1.Gc.major_collections - g0.Gc.major_collections;
          checker_s;
        }
      in
      loop (i + 1) (it :: acc)
    end
  in
  loop 0 []

(* {1 Reporting} *)

let metric buf (name, value, unit) =
  let value = if Float.is_finite value then value else 0. in
  Printf.printf "  %-36s %16.6f %s\n" name value unit;
  Printf.bprintf buf "%s%S:{\"value\":%.17g,\"unit\":%S}"
    (if Buffer.length buf = 0 then "" else ",")
    name value unit

let result ~correct ~attempted ~failed metrics =
  let buf = Buffer.create 1024 in
  List.iter (metric buf) metrics;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed (Buffer.contents buf)

let count o k = Option.value (List.assoc_opt k o.counts) ~default:0.

let end_to_end its =
  let o = (List.hd its).out in
  let wall = median (List.map (fun i -> i.wall_s) its) in
  let lat = Array.copy o.latencies in
  Array.sort compare lat;
  Printf.printf "  latency samples per iteration: %d\n" (Array.length lat);
  [
    ("setup_s", median (List.concat_map (fun i -> i.setup_s) its), "s");
    ("wall_s", wall, "s");
    ("ops_per_s", per (fi o.completed) wall, "ops/s");
    ("peak_heap_mb", (List.hd its).heap_mb, "MB");
    ("goodput_ops_per_kvt", per (1000. *. fi o.completed) (fi o.vt), "ops/kvt");
    ("latency_p50_vt", percentile lat 0.50, "vt");
    ("latency_p99_vt", percentile lat 0.99, "vt");
    ("completed_frac", per (fi o.completed) (fi o.attempted), "ratio");
  ]

let mcheck_keys = [ "benor"; "toy_ac"; "toy_ac_broken" ]

let per_layer ~plain ~traced ~scaling =
  let o = (List.hd traced).out in
  let ops = fi o.completed in
  let med f its = median (List.map f its) in
  let spans = Span.spans () in
  let runs = fi (List.length traced) in
  let per_run name = Span.total ~name spans /. runs in
  let decide_s = per_run "backend.decide" in
  let shard_run = per_run "shard.run" and rsm_run = per_run "rsm.run" in
  let gens = List.length (List.filter (fun s -> s.Span.name = "workload.gen") spans) in
  let explore k = per_run ("mcheck." ^ k ^ ".explore") in
  let slots = count o "rsm.slots" in
  [
    ("workload.gen_s", per (Span.total ~name:"workload.gen" spans) (fi gens), "s");
    ("shard.run_s", shard_run, "s");
    ("shard.self_s", (if shard_run > 0. then shard_run -. decide_s else 0.), "s");
    ("shard.us_per_op_scaling", scaling, "ratio");
    ("shard.abort_rate", count o "shard.abort_rate", "ratio");
    ("shard.txs_committed", count o "shard.txs_committed", "count");
    ("rsm.run_s", rsm_run, "s");
    ("rsm.self_s", (if rsm_run > 0. then rsm_run -. decide_s else 0.), "s");
    ("rsm.slots", slots, "count");
    ("rsm.cmds_per_slot", per (count o "rsm.cmds") slots, "cmds/slot");
    ("rsm.instances_per_slot", per (count o "rsm.instances") slots, "inst/slot");
    ("backend.calls", fi !calls, "count");
    ("backend.decide_s", decide_s, "s");
    ("backend.us_per_call", per (1e6 *. decide_s) (fi !calls), "us");
    ("backend.share", per decide_s (shard_run +. rsm_run), "ratio");
    ("backend.vt_per_call", per (fi !decide_vt) (fi !calls), "vt");
    ("netsim.msgs_per_op", per (count o "netsim.sent") ops, "msgs/op");
    ("netsim.delivered_frac", per (count o "netsim.delivered") (count o "netsim.sent"), "ratio");
    ("store.fsyncs_per_op", per (count o "store.fsyncs") ops, "fsyncs/op");
    ("store.bytes_per_op", per (count o "store.bytes") ops, "B/op");
    ("store.appends", count o "store.appends", "count");
    ("checker.s", med (fun i -> i.checker_s) traced, "s");
    ("gc.alloc_b_per_op", per (List.hd plain).alloc_b ops, "B/op");
    ("gc.minor_collections", med (fun i -> fi i.minor) plain, "count");
    ("gc.major_collections", med (fun i -> fi i.major) plain, "count");
  ]
  @ List.concat_map
      (fun k ->
        let m s = "mcheck." ^ k ^ "." ^ s in
        let execs = count o (m "executions") in
        [
          (m "executions", execs, "count");
          (m "pruned", count o (m "pruned"), "count");
          (m "truncated", count o (m "truncated"), "count");
          (m "violating", count o (m "violating"), "count");
          (m "explore_s", explore k, "s");
          (m "execs_per_s", per execs (explore k), "execs/s");
        ])
      mcheck_keys
  @ [
      ( "trace.overhead_frac",
        med (fun i -> i.wall_s) traced /. med (fun i -> i.wall_s) plain -. 1.,
        "ratio" );
    ]

(* {1 Gate} *)

(* Every iteration of a seed must pass the program's checks and agree
   with the first on every deterministic number.  Untraced iterations
   must also agree on bytes allocated, within 0.5%: even from the same
   compacted heap, OCaml 5.1's word counters drift by up to ~0.05%
   between identical runs. *)
let gate ~plain ~traced =
  let its = plain @ traced in
  let det = deterministic (List.hd its).out in
  let alloc = (List.hd plain).alloc_b in
  List.sort_uniq compare
    (List.concat_map (fun i -> i.out.problems) its
    @ (if List.for_all (fun i -> deterministic i.out = det) its then []
       else [ "deterministic counts differ between iterations of one seed" ])
    @
    if List.for_all (fun i -> Float.abs (i.alloc_b -. alloc) <= 5e-3 *. alloc) plain then []
    else [ "allocation differs between untraced iterations of one seed" ])

let chrome_out ~workload ~seed =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
  Out_channel.with_open_text file (fun oc -> output_string oc (Span.to_chrome (Span.spans ())));
  file

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  one of: " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  how long to measure");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--probe", Arg.String (function
         | "double-decide" -> double_decide := true
         | p -> raise (Arg.Bad ("unknown probe " ^ p))),
       "double-decide  sensitivity probe: run every backend decide twice");
    ]
  in
  let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let make =
    match List.assoc_opt !workload workloads with
    | Some m when !trace = 0 || !trace = 1 -> m
    | _ ->
        Arg.usage spec usage;
        exit 2
  in
  let backend = observed (backend_of !workload) in
  let setup () = make ~seed:!seed ~backend in
  let plain = iterate ~seconds:!seconds ~min_iters:3 ~traced:false ~setup () in
  let o = (List.hd plain).out in
  Printf.printf "%s seed %d: %d iterations, %d ops each, %d completed\n" !workload !seed
    (List.length plain) o.attempted o.completed;
  Printf.printf "  wall_s per iteration: %s\n"
    (String.concat " " (List.map (fun i -> Printf.sprintf "%.4f" i.wall_s) plain));
  let problems, metrics, traced =
    if !trace = 0 then (gate ~plain ~traced:[], end_to_end plain, [])
    else begin
      (* [scaling] compares µs per completed op against a 5k-client
         companion of the same traffic, which must pass the gate too. *)
      let scaling, companion =
        if !workload <> "shard-closed-20k" then (0., [])
        else
          let us its = median (List.map (fun i -> i.wall_s /. fi i.out.completed) its) in
          let small =
            iterate ~seconds:0. ~min_iters:3 ~traced:false
              ~setup:(fun () -> shard_closed ~clients:5_000 ~seed:!seed ~backend)
              ()
          in
          (us plain /. us small, gate ~plain:small ~traced:[])
      in
      Span.enabled := true;
      let traced = iterate ~seconds:!seconds ~min_iters:3 ~traced:true ~setup () in
      Span.enabled := false;
      (companion @ gate ~plain ~traced, per_layer ~plain ~traced ~scaling, traced)
    end
  in
  if traced <> [] then
    Printf.printf "spans written to %s\n" (chrome_out ~workload:!workload ~seed:!seed);
  List.iter (Printf.printf "GATE FAILED: %s\n") problems;
  Printf.printf "deterministic: %s\n" (Digest.to_hex (Digest.string (deterministic o)));
  let correct = problems = [] in
  let attempted = List.fold_left (fun a i -> a + i.out.attempted) 0 (plain @ traced) in
  result ~correct ~attempted ~failed:(if correct then 0 else attempted) metrics;
  exit (if correct then 0 else 1)
