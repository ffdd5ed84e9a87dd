(* Tests for the multi-shot RSM subsystem: log slot decisions, batching,
   duplicate suppression, and the total-order checker across backends,
   seeds and crash schedules. *)

module Backend = Rsm.Backend
module Log = Rsm.Log
module Tob = Rsm.Tob
module App = Obj.Kv
module Checker = Rsm.Checker
module Runner = Rsm.Runner

let kv_app = Workload.Rsm_load.kv_app

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let backend_name b = Backend.name b

(* --- helpers ----------------------------------------------------------- *)

let set k v = App.Set (k, v)

let ops_of_n ~client n =
  List.init n (fun k -> set (Printf.sprintf "k%d-%d" client k) (string_of_int k))

let run ?(backend = Backend.ben_or) ?(n = 4) ?(batch = 4) ?(seed = 1)
    ?(crash_schedule = []) ops =
  Runner.run kv_app
    {
      (Runner.default_config ~n ~ops) with
      backend;
      batch;
      seed = Int64.of_int seed;
      crash_schedule;
    }

let no_violations ?(msg = "no violations") (r : _ Runner.report) =
  let show vs = Fmt.str "%a" (Fmt.list Checker.pp_violation) vs in
  check Alcotest.string (msg ^ " (order)") "" (show r.violations);
  check Alcotest.string (msg ^ " (completeness)") "" (show r.completeness);
  check Alcotest.bool (msg ^ " (digests)") true r.digests_agree

(* --- log: slot decision ------------------------------------------------ *)

(* Three replicas race proposals for slot 0 (one empty-handed): the
   decided batch must be one of the non-empty proposals and the same
   answer must be observable by everyone. *)
let log_slot_decision backend () =
  let eng = Dsim.Engine.create ~seed:7L () in
  let log =
    Log.create ~engine:eng ~backend ~seed:7L ~live:(fun () -> [ 0; 1; 2 ]) ()
  in
  Log.propose log ~slot:0 ~pid:0 ~batch:[ "a" ];
  Log.propose log ~slot:0 ~pid:1 ~batch:[ "b"; "c" ];
  Log.propose log ~slot:0 ~pid:2 ~batch:[];
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  match Log.decided log ~slot:0 with
  | None -> Alcotest.fail "slot 0 undecided"
  | Some d ->
      check Alcotest.bool "winner proposed non-empty" true
        (List.mem d.Log.winner [ 0; 1 ]);
      let expected = if d.Log.winner = 0 then [ "a" ] else [ "b"; "c" ] in
      check Alcotest.(list string) "batch is the winner's" expected d.Log.batch;
      check Alcotest.bool "consumed >= 1 backend instance" true (d.Log.instances >= 1);
      check Alcotest.int "one slot decided" 1 (Log.decided_count log)

(* A lone live proposer gets its own batch back. *)
let log_single_proposer () =
  let eng = Dsim.Engine.create ~seed:3L () in
  let log =
    Log.create ~engine:eng ~backend:Backend.ben_or ~seed:3L
      ~live:(fun () -> [ 2 ]) ()
  in
  Log.propose log ~slot:5 ~pid:2 ~batch:[ "solo" ];
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  match Log.decided log ~slot:5 with
  | Some { Log.winner = 2; batch = [ "solo" ]; _ } -> ()
  | _ -> Alcotest.fail "lone proposer must win its own slot"

(* A slot must wait for every live replica, and release when one of the
   awaited replicas crashes instead of proposing. *)
let log_waits_then_releases_on_crash () =
  let eng = Dsim.Engine.create ~seed:9L () in
  let crashed = ref false in
  let live () = if !crashed then [ 0 ] else [ 0; 1 ] in
  let log = Log.create ~engine:eng ~backend:Backend.ben_or ~seed:9L ~live () in
  Log.propose log ~slot:0 ~pid:0 ~batch:[ "x" ];
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  check Alcotest.bool "undecided while replica 1 is awaited" true
    (Log.decided log ~slot:0 = None);
  Dsim.Engine.schedule eng ~delay:5 (fun () -> crashed := true);
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  match Log.decided log ~slot:0 with
  | Some { Log.winner = 0; _ } -> ()
  | _ -> Alcotest.fail "slot must decide once the laggard crashes"

(* --- tob: duplicate suppression ---------------------------------------- *)

(* The same command id injected at two different replicas must be applied
   exactly once per replica, and the checker must stay clean. *)
let duplicate_suppression () =
  let eng = Dsim.Engine.create ~seed:5L () in
  let net = Netsim.Async_net.create eng ~n:3 ~retain_inbox:false () in
  let live () =
    List.filter (fun p -> not (Netsim.Async_net.is_crashed net p)) [ 0; 1; 2 ]
  in
  let log = Log.create ~engine:eng ~backend:Backend.ben_or ~seed:5L ~live () in
  let checker = Checker.create () in
  Checker.record_submitted checker ~cid:7;
  Checker.record_submitted checker ~cid:8;
  let deliver ~pid ~slot (e : _ Tob.entry) =
    Checker.record_applied checker ~replica:pid ~slot ~cid:e.Tob.cid
  in
  let tob = Tob.create ~engine:eng ~net ~log ~batch:4 ~deliver () in
  Dsim.Engine.schedule eng ~delay:0 (fun () ->
      ignore (Tob.submit tob ~replica:0 { Tob.cid = 7; op = "dup" } : bool);
      ignore (Tob.submit tob ~replica:1 { Tob.cid = 7; op = "dup" } : bool);
      ignore (Tob.submit tob ~replica:2 { Tob.cid = 8; op = "solo" } : bool));
  Dsim.Engine.schedule eng ~delay:2_000 (fun () -> Tob.stop tob);
  let outcome = Dsim.Engine.run eng in
  check Alcotest.bool "quiescent" true (outcome = Dsim.Engine.Quiescent);
  for pid = 0 to 2 do
    check Alcotest.int
      (Printf.sprintf "replica %d applied both commands exactly once" pid)
      2
      (Tob.delivered_count tob ~pid)
  done;
  check Alcotest.string "checker clean" ""
    (Fmt.str "%a" (Fmt.list Checker.pp_violation) (Checker.check checker))

(* --- tob: batch choice --------------------------------------------------- *)

(* A replica proposes the [batch] smallest pending cids, ascending — not
   arrival order.  One replica, so every slot carries its proposal; batch
   3 against eight cids submitted scrambled; after slot 0 two smaller
   cids arrive and must jump ahead of the older pending ones.  The choice
   is Tob's alone, so the slots are the same for every backend and seed. *)
let batch_takes_smallest_cids backend seed =
  let seed = Int64.of_int seed in
  let eng = Dsim.Engine.create ~seed () in
  let net = Netsim.Async_net.create eng ~n:1 ~retain_inbox:false () in
  let log = Log.create ~engine:eng ~backend ~seed ~live:(fun () -> [ 0 ]) () in
  let slots = Hashtbl.create 8 in
  let deliver ~pid:_ ~slot (e : _ Tob.entry) =
    let prev = Option.value ~default:[] (Hashtbl.find_opt slots slot) in
    Hashtbl.replace slots slot (prev @ [ e.Tob.cid ])
  in
  let cell = ref None in
  let tob () = Option.get !cell in
  let submit cid =
    ignore (Tob.submit (tob ()) ~replica:0 { Tob.cid; op = () } : bool)
  in
  let on_slot_applied ~pid:_ ~slot ~fresh:_ =
    if slot = 0 then List.iter submit [ 5; 0 ];
    if Tob.delivered_count (tob ()) ~pid:0 = 10 then Tob.stop (tob ())
  in
  cell :=
    Some (Tob.create ~engine:eng ~net ~log ~batch:3 ~deliver ~on_slot_applied ());
  Dsim.Engine.schedule eng ~delay:0 (fun () ->
      List.iter submit [ 17; 3; 42; 8; 25; 1; 30; 12 ]);
  let outcome = Dsim.Engine.run eng in
  check Alcotest.bool "quiescent" true (outcome = Dsim.Engine.Quiescent);
  let decided =
    Hashtbl.fold (fun slot cids acc -> (slot, cids) :: acc) slots []
    |> List.sort compare
  in
  check
    Alcotest.(list (pair int (list int)))
    (Printf.sprintf "%s, seed %Ld: each slot is the ascending prefix of the \
                     smallest pending cids" (backend_name backend) seed)
    [ (0, [ 1; 3; 8 ]); (1, [ 0; 5; 12 ]); (2, [ 17; 25; 30 ]); (3, [ 42 ]) ]
    decided

let batch_choice_golden () =
  List.iter
    (fun b -> List.iter (batch_takes_smallest_cids b) [ 1; 5; 7919 ])
    Backend.all

(* --- pending index: differential against fold+sort+take ---------------- *)

(* The operations a replica's pending set sees, as [Rsm.Tob] issues
   them: a command arrives; a batch is taken for a proposal; a decided
   batch is removed; commands arrive and are ordered through another
   replica's batch before this one takes them; a crash or a
   [restart ~recovery] empties the set (after a restart, commands arrive
   again); a state-transfer floor removes the cids it covers. *)
type pending_op =
  | Receive of int
  | Take of int
  | Decide of int
  | Churn of int list
  | Crash
  | Restart of int list
  | Floor of int list

let pp_pending_op = function
  | Receive c -> Printf.sprintf "receive %d" c
  | Take k -> Printf.sprintf "take %d" k
  | Decide k -> Printf.sprintf "decide %d" k
  | Churn l ->
      Printf.sprintf "churn [%s]" (String.concat ";" (List.map string_of_int l))
  | Crash -> "crash"
  | Restart l ->
      Printf.sprintf "restart [%s]" (String.concat ";" (List.map string_of_int l))
  | Floor l ->
      Printf.sprintf "floor [%s]" (String.concat ";" (List.map string_of_int l))

(* A small cid range, so removed cids are received again often — each
   such re-receive leaves a stale or duplicate heap entry behind.  Churn
   piles up stale entries above the taken prefix until the heap is
   rebuilt from the table. *)
let gen_pending_ops =
  QCheck.Gen.(
    let cid = int_range 0 40 in
    let cids = list_size (int_range 0 10) cid in
    list_size (int_range 0 300)
      (frequency
         [
           (8, map (fun c -> Receive c) cid);
           (2, map (fun k -> Take k) (int_range 0 8));
           (3, map (fun k -> Decide k) (int_range 1 8));
           (2, map (fun l -> Churn l) (list_size (int_range 0 40) cid));
           (1, return Crash);
           (1, map (fun l -> Restart l) cids);
           (2, map (fun l -> Floor l) cids);
         ]))

(* The batch choice as [Tob] made it before the index: fold the table,
   sort the cids, take the first [k]. *)
let reference_take tbl k =
  let ids = Hashtbl.fold (fun cid _ acc -> cid :: acc) tbl [] in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | cid :: rest -> (cid, Hashtbl.find tbl cid) :: take (k - 1) rest
  in
  take k (List.sort compare ids)

let prop_pending_matches_reference =
  QCheck.Test.make ~name:"pending index = fold+sort+take" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_pending_op ops))
       gen_pending_ops)
    (fun ops ->
      let p = Rsm.Pending.create () in
      let tbl = Hashtbl.create 16 in
      let step = ref 0 in
      let receive cid =
        (* the value records when it arrived, so a stale binding shows *)
        incr step;
        Rsm.Pending.add p cid (cid, !step);
        Hashtbl.replace tbl cid (cid, !step)
      in
      let remove cid =
        Rsm.Pending.remove p cid;
        Hashtbl.remove tbl cid
      in
      let clear () =
        Rsm.Pending.clear p;
        Hashtbl.reset tbl
      in
      let take k =
        let got = Rsm.Pending.take p k in
        let want = List.map snd (reference_take tbl k) in
        if got <> want then
          QCheck.Test.fail_reportf "take %d: got [%s], want [%s]" k
            (String.concat ";" (List.map (fun (c, _) -> string_of_int c) got))
            (String.concat ";" (List.map (fun (c, _) -> string_of_int c) want));
        let cids = List.map fst got in
        if List.sort_uniq compare cids <> cids then
          QCheck.Test.fail_reportf "take %d: duplicated or unordered cids" k;
        if List.exists (fun c -> not (Hashtbl.mem tbl c)) cids then
          QCheck.Test.fail_reportf "take %d: returned a removed cid" k;
        cids
      in
      List.iter
        (function
          | Receive c -> receive c
          | Take k -> ignore (take k : int list)
          | Decide k -> List.iter remove (take k)
          | Churn l ->
              List.iter
                (fun c ->
                  receive c;
                  remove c)
                l
          | Crash -> clear ()
          | Restart l ->
              clear ();
              List.iter receive l
          | Floor l -> List.iter remove l)
        ops;
      Rsm.Pending.length p = Hashtbl.length tbl
      && take max_int = List.sort compare (Hashtbl.fold (fun c _ a -> c :: a) tbl []))

(* --- tob: the delivered set's O(1) capture ----------------------------- *)

type delivered_op =
  | Deliver of int
  | Reset of int list  (** a floor install or a disk recovery *)

let pp_delivered_op = function
  | Deliver c -> Printf.sprintf "deliver %d" c
  | Reset l ->
      Printf.sprintf "reset [%s]" (String.concat ";" (List.map string_of_int l))

(* Enough distinct cids to fill several of [Delivered]'s chunks between
   resets, and a narrow enough range that re-deliveries are common. *)
let gen_delivered_ops =
  QCheck.Gen.(
    let cid = int_range 0 200 in
    list_size (int_range 0 400)
      (frequency
         [
           (30, map (fun c -> Deliver c) cid);
           (1, map (fun l -> Reset l) (list_size (int_range 0 80) cid));
         ]))

(* A capture taken at step i is forced only after every later step; it
   must still be the delivered set at step i, ascending. *)
let prop_delivered_capture_is_immutable =
  QCheck.Test.make ~name:"delivered capture = sorted set at capture time"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_delivered_op ops))
       gen_delivered_ops)
    (fun ops ->
      let d = Rsm.Delivered.create () in
      let model = Hashtbl.create 64 in
      let sorted () =
        List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) model [])
      in
      let captures =
        List.map
          (fun op ->
            (match op with
            | Deliver c ->
                Rsm.Delivered.add d c;
                Hashtbl.replace model c ()
            | Reset l ->
                Rsm.Delivered.reset d l;
                Hashtbl.reset model;
                List.iter (fun c -> Hashtbl.replace model c ()) l);
            if
              not
                (List.for_all
                   (fun c -> Rsm.Delivered.mem d c = Hashtbl.mem model c)
                   (List.init 201 Fun.id))
            then QCheck.Test.fail_reportf "membership differs after %s"
                (pp_delivered_op op);
            (Rsm.Delivered.capture d, sorted ()))
          ops
      in
      List.iteri
        (fun i (lazy got, want) ->
          if got <> want then
            QCheck.Test.fail_reportf "capture %d: got [%s], want [%s]" i
              (String.concat ";" (List.map string_of_int got))
              (String.concat ";" (List.map string_of_int want)))
        captures;
      true)

(* --- tob: version-gated wake-ups --------------------------------------- *)

(* A replica parked in a gated [await] re-evaluates its predicate only
   when a version it reads moves, so each input that can unblock it must
   move one.  Every scenario below parks all replicas first, then feeds
   exactly one such input at t=5; a missed wake-up leaves the run in
   [Deadlock] instead of [Quiescent].  Replicas stop once every replica
   has delivered [expect] commands (or installed a floor). *)
let wake_run ?(partition = false) ~n ~expect input =
  let eng = Dsim.Engine.create ~seed:3L () in
  let net = Netsim.Async_net.create eng ~n ~retain_inbox:false () in
  if partition then
    Netsim.Async_net.set_partition net (List.init n (fun p -> [ p ]));
  let log =
    Log.create ~engine:eng ~backend:Backend.ben_or ~seed:3L
      ~live:(fun () -> List.init n Fun.id) ()
  in
  let cell = ref None in
  let tob () = Option.get !cell in
  let done_ () =
    if
      List.for_all
        (fun pid -> Tob.delivered_count (tob ()) ~pid >= expect)
        (List.init n Fun.id)
    then Tob.stop (tob ())
  in
  let deliver ~pid:_ ~slot:_ _ = done_ () in
  let on_install ~pid:_ ~owner:_ ~upto:_ ~state:_ ~cids:_ = done_ () in
  cell :=
    Some (Tob.create ~engine:eng ~net ~log ~batch:4 ~deliver ~on_install ());
  Dsim.Engine.schedule eng ~delay:5 (fun () -> input ~net ~log ~tob:(tob ()));
  match Dsim.Engine.run eng with
  | Dsim.Engine.Quiescent -> tob ()
  | Dsim.Engine.Deadlock pids ->
      Alcotest.failf "deadlock: pids %s still blocked"
        (String.concat "," (List.map string_of_int pids))
  | _ -> Alcotest.fail "run did not finish"

let entry cid = { Tob.cid; op = "x" }

let wake_by_broadcast () =
  (* replica 0's only input: a command its sibling sent it *)
  let tob =
    wake_run ~n:2 ~expect:1
      (fun ~net ~log:_ ~tob:_ ->
        Netsim.Async_net.send net ~src:1 ~dst:0 (entry 1))
  in
  check Alcotest.bool "delivered" true (Tob.is_delivered tob ~cid:1)

let wake_by_opened_slot () =
  (* the partition drops replica 1's broadcast, so replica 0 learns of
     slot 0 only from the log *)
  ignore
    (wake_run ~n:2 ~expect:1 ~partition:true
       (fun ~net:_ ~log:_ ~tob ->
         ignore (Tob.submit tob ~replica:1 (entry 1) : bool))
      : string Tob.t)

let wake_by_decision () =
  (* the lone replica proposes, then waits on the decider's publish *)
  ignore
    (wake_run ~n:1 ~expect:1
       (fun ~net:_ ~log:_ ~tob ->
         ignore (Tob.submit tob ~replica:0 (entry 1) : bool))
      : string Tob.t)

let wake_by_floor () =
  let tob =
    wake_run ~n:2 ~expect:2
      (fun ~net:_ ~log ~tob:_ ->
        Log.set_floor log ~owner:1 ~upto:3 ~state:(lazy "snap")
          ~cids:(lazy [ 10; 11 ]))
  in
  check Alcotest.int "replica 0 resumes after the floor" 4
    (Tob.next_slot tob ~pid:0)

let wake_by_stop () =
  ignore
    (wake_run ~n:2 ~expect:max_int (fun ~net:_ ~log:_ ~tob -> Tob.stop tob)
      : string Tob.t)

(* --- runner: batching -------------------------------------------------- *)

(* Fewer slots (and so fewer backend instances) with a larger batch, same
   commands delivered either way.  Batching only pays off under
   concurrency — closed-loop clients keep at most one command in flight
   each, so several of them must race. *)
let batching_amortizes () =
  let ops = Array.init 6 (fun c -> ops_of_n ~client:c 4) in
  let small = run ~batch:1 ops in
  let large = run ~batch:8 ops in
  no_violations ~msg:"batch=1" small;
  no_violations ~msg:"batch=8" large;
  check Alcotest.int "batch=1 acks all" 24 small.acked;
  check Alcotest.int "batch=8 acks all" 24 large.acked;
  check Alcotest.bool
    (Printf.sprintf "batch=8 uses fewer slots (%d < %d)" large.slots small.slots)
    true (large.slots < small.slots);
  check Alcotest.bool "batch=8 uses fewer backend instances" true
    (large.instances < small.instances)

(* --- runner: every backend, clean and crashy --------------------------- *)

let backend_clean_run backend () =
  let ops = Array.init 2 (fun c -> ops_of_n ~client:c 5) in
  let r = run ~backend ~n:4 ops in
  check Alcotest.bool "quiescent" true (r.engine_outcome = Dsim.Engine.Quiescent);
  check Alcotest.int "all acked" 10 r.acked;
  no_violations r

let backend_crash_run backend () =
  for seed = 1 to 5 do
    let ops = Array.init 2 (fun c -> ops_of_n ~client:c 4) in
    let r =
      run ~backend ~n:5 ~seed ~crash_schedule:[ (30, 1); (90, 3) ] ops
    in
    check Alcotest.int
      (Printf.sprintf "seed %d: all acked despite crashes" seed)
      8 r.acked;
    no_violations ~msg:(Printf.sprintf "seed %d" seed) r
  done

(* Crash–restart (the recoverable model): replicas that crash and come
   back must catch up from the log's cached decisions — all commands
   acked, every replica (all live at the end) applies every command, and
   all digests agree. *)
let backend_crash_restart_run backend () =
  for seed = 1 to 3 do
    let ops = Array.init 2 (fun c -> ops_of_n ~client:c 4) in
    let crash_schedule, restart_schedule =
      Workload.Rsm_load.crash_restart_plan ~n:4 ~crashes:2 ~down_for:120 ()
    in
    let r =
      Runner.run kv_app
        {
          (Runner.default_config ~n:4 ~ops) with
          backend;
          batch = 4;
          seed = Int64.of_int seed;
          crash_schedule;
          restart_schedule;
        }
    in
    check Alcotest.int
      (Printf.sprintf "seed %d: crash events" seed)
      2
      (List.length r.crashed);
    check Alcotest.int
      (Printf.sprintf "seed %d: restart events" seed)
      2
      (List.length r.restarted);
    check Alcotest.int
      (Printf.sprintf "seed %d: all acked across restarts" seed)
      8 r.acked;
    no_violations ~msg:(Printf.sprintf "seed %d" seed) r;
    (* Everyone is live at the end, so completeness + digests above cover
       the restarted replicas too; delivered counts must all match. *)
    Array.iter
      (fun d ->
        check Alcotest.int
          (Printf.sprintf "seed %d: every replica applied everything" seed)
          r.delivered.(0) d)
      r.delivered
  done

(* CAS commands must resolve identically everywhere: total order makes the
   winner deterministic per run, and digests already catch divergence. *)
let cas_replicated_consistently () =
  let contended c =
    [
      App.Cas { key = "lock"; expect = None; update = Printf.sprintf "c%d" c };
      set (Printf.sprintf "after%d" c) "1";
    ]
  in
  let r = run ~n:3 [| contended 0; contended 1; contended 2 |] in
  no_violations r;
  check Alcotest.int "all acked" 6 r.acked

(* --- property: total order across seeds, crashes and backends ---------- *)

let prop_total_order =
  QCheck.Test.make ~name:"rsm total order across seeds/crashes/backends" ~count:24
    QCheck.(
      quad (int_range 1 1_000_000) (int_range 0 2) (int_range 1 4) (int_range 0 1))
    (fun (seed, backend_ix, batch, crashes) ->
      let backend = List.nth Backend.all backend_ix in
      let n = 4 in
      let ops = Array.init 2 (fun c -> ops_of_n ~client:c 3) in
      let crash_schedule = List.init crashes (fun k -> (25 + (40 * k), k)) in
      let r = run ~backend ~n ~batch ~seed ~crash_schedule ops in
      r.violations = [] && r.completeness = [] && r.digests_agree
      && r.acked = 6)

let suite =
  List.concat
    [
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "log slot decision (%s)" (backend_name b))
            `Quick (log_slot_decision b))
        Backend.all;
      [
        Alcotest.test_case "log single proposer" `Quick log_single_proposer;
        Alcotest.test_case "log releases on crash" `Quick
          log_waits_then_releases_on_crash;
        Alcotest.test_case "duplicate suppression" `Quick duplicate_suppression;
        Alcotest.test_case "batch takes the smallest cids" `Quick
          batch_choice_golden;
        qtest prop_pending_matches_reference;
        qtest prop_delivered_capture_is_immutable;
        Alcotest.test_case "wake-up: sibling broadcast" `Quick wake_by_broadcast;
        Alcotest.test_case "wake-up: slot opened elsewhere" `Quick
          wake_by_opened_slot;
        Alcotest.test_case "wake-up: published decision" `Quick wake_by_decision;
        Alcotest.test_case "wake-up: state-transfer floor" `Quick wake_by_floor;
        Alcotest.test_case "wake-up: stop" `Quick wake_by_stop;
        Alcotest.test_case "batching amortizes consensus" `Quick batching_amortizes;
        Alcotest.test_case "cas replicated consistently" `Quick
          cas_replicated_consistently;
      ];
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "clean run (%s)" (backend_name b))
            `Quick (backend_clean_run b))
        Backend.all;
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "crash tolerance (%s)" (backend_name b))
            `Quick (backend_crash_run b))
        Backend.all;
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "crash-restart recovery (%s)" (backend_name b))
            `Quick (backend_crash_restart_run b))
        Backend.all;
      [ qtest prop_total_order ];
    ]
