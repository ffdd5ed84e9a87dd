type pid = int

exception Killed
exception Not_in_process

type proc_state = Running | Finished | Dead

(* A blocked-on-[await] process sits in a doubly-linked list threaded
   through [bnode]s (sentinel at the engine).  The polymorphic poll and
   continuation are captured in the [try_]/[kill_] closures, so no GADT
   is needed, and the node pointer stored on the process record makes
   [kill] O(1) instead of O(all blocked). *)
type bnode = {
  mutable prev : bnode;
  mutable next : bnode;
  mutable try_ : unit -> bool;
      (* poll; on ready: unlink self, resume, return true (restart scan) *)
  mutable kill_ : unit -> unit;  (* discontinue the continuation with Killed *)
  mutable bn_pid : pid;
}

type proc = {
  p_pid : pid;
  p_name : string;
  mutable p_state : proc_state;
  mutable p_failure : exn option;
  mutable p_k : (unit, unit) Effect.Deep.continuation option;
      (* pending sleep/yield resume — a fiber has one suspension point *)
  mutable p_block : bnode option;  (* await node, for O(1) kill *)
}

type choice = {
  c_domain : string;
  c_arity : int;
  c_owners : int option array;
  c_time : int;  (* virtual time of the tied events ("sched" only) *)
  c_seqs : int array;  (* queue insertion seqs: stable per-run identity *)
  c_creators : int array;
      (* c_creators.(i) = seq of the event whose execution scheduled
         tied event i, or -1 when scheduled during setup — the
         creation-chain edges a DPOR happens-before analysis needs *)
}

type oracle = { choose : choice -> int }

(* Events are packed ints, not boxed records: bits 0..9 hold the kind
   (an index into the dispatch table), bits 10..32 the owner pid plus
   one (0 = no owner), bits 33..62 the kind-specific argument.  Kind 0
   runs a closure from the arena below; kind 1 resumes a sleeping or
   yielded process (arg = pid); layers register further kinds so their
   hot paths never allocate a closure per event. *)
let k_closure = 0
let k_resume = 1
let kind_bits = 10
let owner_bits = 23
let max_kinds = 1 lsl kind_bits
let kind_mask = max_kinds - 1
let owner_mask = (1 lsl owner_bits) - 1
let arg_shift = kind_bits + owner_bits

let pack ~kind ~owner ~arg =
  (arg lsl arg_shift) lor ((owner + 1) lsl kind_bits) lor kind

let ev_owner ev = ((ev lsr kind_bits) land owner_mask) - 1

type t = {
  mutable now : int;
  events : Heap.t;
  tr : Trace.t;
  mutable tracing : bool;
  engine_rng : Rng.t;
  mutable parr : proc array;  (* indexed by pid; pids are sequential *)
  mutable next_pid : int;
  bsent : bnode;  (* sentinel of the blocked list, newest first *)
  mutable oracle : oracle option;
  (* Event lineage, tracked only while an oracle is installed (the
     DPOR analysis reads it through [c_creators]; the quiet hot path
     pays one predictable branch in [schedule_kind]). *)
  mutable lineage : bool;
  mutable creators : int array;  (* seq -> creating event's seq, or -1 *)
  mutable cur_seq : int;  (* seq of the event currently executing, -1 at setup *)
  mutable dispatch : (int -> unit) array;  (* kind -> handler of arg *)
  mutable kind_count : int;
  (* closure arena: pending [schedule]d thunks, freelist-threaded *)
  mutable cfns : (unit -> unit) array;
  mutable cnext : int array;
  mutable cfree : int;
  mutable ctop : int;
}

type ctx = { engine : t; pid : pid; rng : Rng.t }

type outcome = Quiescent | Deadlock of pid list | Time_limit | Event_limit

type _ Effect.t +=
  | Await : (unit -> 'a option) -> 'a Effect.t
  | Sleep : int -> unit Effect.t
  | Yield : unit Effect.t

(* ------------------------------------------------------- blocked list -- *)

let no_try () = false
let no_kill () = ()

let make_sentinel () =
  let rec s = { prev = s; next = s; try_ = no_try; kill_ = no_kill; bn_pid = -1 } in
  s

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.prev <- n;
  n.next <- n

let push_front t n =
  let s = t.bsent in
  n.next <- s.next;
  n.prev <- s;
  s.next.prev <- n;
  s.next <- n

let blocked_empty t = t.bsent.next == t.bsent

let blocked_pids t =
  let rec go acc n = if n == t.bsent then acc else go (n.bn_pid :: acc) n.next in
  List.sort_uniq compare (go [] t.bsent.next)

(* ------------------------------------------------------------- arenas -- *)

let dummy_fn () = ()

let dummy_proc =
  {
    p_pid = -1;
    p_name = "?";
    p_state = Dead;
    p_failure = None;
    p_k = None;
    p_block = None;
  }

let grow_closures t =
  let cap = Array.length t.cfns in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let fns = Array.make ncap dummy_fn and nxt = Array.make ncap (-1) in
  Array.blit t.cfns 0 fns 0 cap;
  Array.blit t.cnext 0 nxt 0 cap;
  t.cfns <- fns;
  t.cnext <- nxt

let alloc_closure t f =
  let slot =
    if t.cfree >= 0 then begin
      let s = t.cfree in
      t.cfree <- t.cnext.(s);
      s
    end
    else begin
      if t.ctop = Array.length t.cfns then grow_closures t;
      let s = t.ctop in
      t.ctop <- s + 1;
      s
    end
  in
  t.cfns.(slot) <- f;
  slot

(* Free before running, so the thunk can schedule into a recycled slot. *)
let run_closure t slot =
  let f = t.cfns.(slot) in
  t.cfns.(slot) <- dummy_fn;
  t.cnext.(slot) <- t.cfree;
  t.cfree <- slot;
  f ()

let resume_proc t pid =
  let p = t.parr.(pid) in
  match p.p_k with
  | None -> ()
  | Some k ->
      p.p_k <- None;
      if p.p_state = Running then Effect.Deep.continue k ()
      else Effect.Deep.discontinue k Killed

(* -------------------------------------------------------- kinds & API -- *)

let invalid_kind (_ : int) = invalid_arg "Engine: event kind not registered"

let register_kind t handler =
  let k = t.kind_count in
  if k >= max_kinds then invalid_arg "Engine.register_kind: kind space exhausted";
  if k = Array.length t.dispatch then begin
    let nd = Array.make (min max_kinds (2 * Array.length t.dispatch)) invalid_kind in
    Array.blit t.dispatch 0 nd 0 k;
    t.dispatch <- nd
  end;
  t.dispatch.(k) <- handler;
  t.kind_count <- k + 1;
  k

let create ?(seed = 1L) ?trace_capacity ?(tracing = true) () =
  let t =
    {
      now = 0;
      events = Heap.create ();
      tr = Trace.create ?capacity:trace_capacity ();
      tracing;
      engine_rng = Rng.create seed;
      parr = Array.make 16 dummy_proc;
      next_pid = 0;
      bsent = make_sentinel ();
      oracle = None;
      lineage = false;
      creators = [||];
      cur_seq = -1;
      dispatch = Array.make 4 invalid_kind;
      kind_count = 0;
      cfns = [||];
      cnext = [||];
      cfree = -1;
      ctop = 0;
    }
  in
  let kc = register_kind t (fun slot -> run_closure t slot) in
  let kr = register_kind t (fun pid -> resume_proc t pid) in
  assert (kc = k_closure && kr = k_resume);
  t

let now t = t.now
let rng t = t.engine_rng
let trace t = t.tr
let tracing t = t.tracing
let set_tracing t on = t.tracing <- on

let emit t ?pid ~tag detail =
  if t.tracing then Trace.emit t.tr ~time:t.now ?pid ~tag detail

let emitk t ?pid ~tag detail =
  if t.tracing then Trace.emit t.tr ~time:t.now ?pid ~tag (detail ())

(* Record who scheduled the event the last [Heap.add] enqueued.  Seqs
   are dense from 0, so a flat array indexed by seq suffices. *)
let note_created t =
  let s = Heap.last_seq t.events in
  let cap = Array.length t.creators in
  if s >= cap then begin
    let ncap = max 64 (max (s + 1) (2 * cap)) in
    let nc = Array.make ncap (-1) in
    Array.blit t.creators 0 nc 0 cap;
    t.creators <- nc
  end;
  t.creators.(s) <- t.cur_seq

let schedule_kind t ~owner ~delay ~kind arg =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  Heap.add t.events ~key:(t.now + delay) (pack ~kind ~owner ~arg);
  if t.lineage then note_created t

let schedule t ?owner ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let ow = match owner with None -> -1 | Some p -> p in
  let slot = alloc_closure t f in
  Heap.add t.events ~key:(t.now + delay) (pack ~kind:k_closure ~owner:ow ~arg:slot);
  if t.lineage then note_created t

let set_oracle t o =
  t.oracle <- o;
  t.lineage <- (match o with Some _ -> true | None -> false)

let oracle t = t.oracle

let proc t pid =
  if pid >= 0 && pid < t.next_pid then t.parr.(pid)
  else invalid_arg (Printf.sprintf "Engine: unknown pid %d" pid)

let alive t pid = pid >= 0 && pid < t.next_pid && t.parr.(pid).p_state = Running
let name t pid = (proc t pid).p_name
let process_failed t pid = (proc t pid).p_failure

(* Suspension primitives: plain effect performers.  They raise
   [Unhandled] as [Not_in_process] when no engine handler is installed. *)

let await poll =
  match poll () with
  | Some v -> v
  | None -> (
      try Effect.perform (Await poll)
      with Effect.Unhandled _ -> raise Not_in_process)

let await_cond p = await (fun () -> if p () then Some () else None)

let sleep _ctx d =
  try Effect.perform (Sleep d) with Effect.Unhandled _ -> raise Not_in_process

let yield _ctx =
  try Effect.perform Yield with Effect.Unhandled _ -> raise Not_in_process

(* Fiber plumbing -------------------------------------------------------- *)

let run_fiber t (p : proc) body =
  let handler : type b. b Effect.t -> ((b, unit) Effect.Deep.continuation -> unit) option
      = function
    | Await poll ->
        Some
          (fun k ->
            match poll () with
            | Some v -> Effect.Deep.continue k v
            | None ->
                let rec node =
                  { prev = node; next = node; try_ = no_try; kill_ = no_kill;
                    bn_pid = p.p_pid }
                in
                node.try_ <-
                  (fun () ->
                    if p.p_state <> Running then begin
                      (* unreachable in practice: [kill] unlinks eagerly *)
                      unlink node;
                      p.p_block <- None;
                      false
                    end
                    else
                      match poll () with
                      | Some v ->
                          unlink node;
                          p.p_block <- None;
                          Effect.Deep.continue k v;
                          true
                      | None -> false);
                node.kill_ <- (fun () -> Effect.Deep.discontinue k Killed);
                p.p_block <- Some node;
                push_front t node)
    | Sleep d ->
        Some
          (fun k ->
            let d = if d < 0 then 0 else d in
            p.p_k <- Some k;
            schedule_kind t ~owner:(-1) ~delay:d ~kind:k_resume p.p_pid)
    | Yield ->
        Some
          (fun k ->
            p.p_k <- Some k;
            schedule_kind t ~owner:(-1) ~delay:0 ~kind:k_resume p.p_pid)
    | _ -> None
  in
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> if p.p_state = Running then p.p_state <- Finished);
      exnc =
        (fun exn ->
          match exn with
          | Killed -> p.p_state <- Dead
          | exn ->
              p.p_state <- Dead;
              p.p_failure <- Some exn;
              emitk t ~pid:p.p_pid ~tag:"crash" (fun () ->
                  Printf.sprintf "uncaught exception: %s" (Printexc.to_string exn)));
      effc = handler;
    }

let grow_parr t =
  let cap = Array.length t.parr in
  let np = Array.make (2 * cap) dummy_proc in
  Array.blit t.parr 0 np 0 cap;
  t.parr <- np

let spawn t ?name body =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  if pid = Array.length t.parr then grow_parr t;
  let p_name = match name with Some n -> n | None -> Printf.sprintf "p%d" pid in
  let p =
    { p_pid = pid; p_name; p_state = Running; p_failure = None; p_k = None;
      p_block = None }
  in
  t.parr.(pid) <- p;
  let proc_rng = Rng.split t.engine_rng in
  let ctx = { engine = t; pid; rng = proc_rng } in
  schedule t ~owner:pid ~delay:0 (fun () ->
      if p.p_state = Running then run_fiber t p (fun () -> body ctx));
  pid

let kill t pid =
  if pid >= 0 && pid < t.next_pid then begin
    let p = t.parr.(pid) in
    if p.p_state = Running then begin
      p.p_state <- Dead;
      emit t ~pid ~tag:"kill" p.p_name;
      (* Discontinue a blocked continuation now so the fiber unwinds;
         sleeping continuations notice at wake-up. *)
      match p.p_block with
      | None -> ()
      | Some node ->
          p.p_block <- None;
          unlink node;
          node.kill_ ()
    end
  end

(* Resume every blocked process whose poll condition now holds, newest
   blocker first, restarting the scan after each resumption (it may
   change the world) until a full pass resumes nobody. *)
let drain_ready_loop t =
  let s = t.bsent in
  let n = ref s.next in
  while !n != s do
    let node = !n in
    let nxt = node.next in
    if node.try_ () then n := s.next else n := nxt
  done

(* The wrapper keeps the common nobody-blocked case a two-load inline
   check; the loop body above is never inlined (it contains a loop). *)
let drain_ready t = if t.bsent.next != t.bsent then drain_ready_loop t

(* [lsr], not [asr]: the arg field reaches bit 62 (the sign bit of a
   63-bit int), so an arithmetic shift would sign-extend args with the
   top bit set. *)
let exec t ev = t.dispatch.(ev land kind_mask) (ev lsr arg_shift)

let finish t =
  if blocked_empty t then Quiescent else Deadlock (blocked_pids t)

(* With an oracle installed every tick where more than one event is
   enabled becomes an explicit choice point: the oracle sees the tied
   events' owners and picks which fires first. *)
let creator_of t s =
  if s >= 0 && s < Array.length t.creators then t.creators.(s) else -1

let pop_next_oracle t o =
  Heap.pop_tied t.events (fun ~seqs ~vals ->
      let arity = Array.length seqs in
      (* A lone event is no choice, so the oracle is not consulted; it
         still becomes the creator of whatever its execution schedules. *)
      let idx =
        if arity = 1 then 0
        else
          o.choose
            {
              c_domain = "sched";
              c_arity = arity;
              c_owners =
                Array.map
                  (fun ev ->
                    let ow = ev_owner ev in
                    if ow < 0 then None else Some ow)
                  vals;
              c_time = Heap.peek_key_fast t.events;
              c_seqs = seqs;
              c_creators = Array.map (fun s -> creator_of t s) seqs;
            }
      in
      t.cur_seq <- seqs.(idx);
      idx)

let run ?until ?max_events t =
  let limit = match until with Some l -> l | None -> max_int in
  let budget = match max_events with Some m -> m | None -> max_int in
  let executed = ref 0 in
  (* A bool stop flag, not an [outcome option]: [= None] is polymorphic
     equality and this test sits on the per-event hot path. *)
  let stop = ref false in
  let result = ref Quiescent in
  let finish_with o =
    result := o;
    stop := true
  in
  drain_ready t;
  (* The oracle is fixed before [run] (all [set_oracle] callers install
     theirs during setup), so the match hoists out of the per-event
     loop. *)
  (match t.oracle with
  | Some o ->
      (* Oracle mode: the limit putback happens after the pop — the
         oracle's choice is consumed either way, exactly like the
         classic engine. *)
      while not !stop do
        match pop_next_oracle t o with
        | None -> finish_with (finish t)
        | Some (time, ev) ->
            if time > limit then begin
              Heap.add t.events ~key:time ev;
              t.now <- limit;
              finish_with Time_limit
            end
            else begin
              t.now <- time;
              exec t ev;
              drain_ready t;
              incr executed;
              if !executed >= budget then finish_with Event_limit
            end
      done
  | None ->
      (* The quiet hot loop: no option, tuple or closure per event. *)
      let h = t.events in
      while not !stop do
        if Heap.is_empty h then finish_with (finish t)
        else begin
          let time = Heap.peek_key_fast h in
          if time > limit then begin
            (* Pop-and-re-add, preserving the classic engine's tiebreak
               bump for events deferred past the limit. *)
            let ev = Heap.pop_value h in
            Heap.add h ~key:time ev;
            t.now <- limit;
            finish_with Time_limit
          end
          else begin
            t.now <- time;
            exec t (Heap.pop_value h);
            drain_ready t;
            incr executed;
            if !executed >= budget then finish_with Event_limit
          end
        end
      done);
  !result

let run_quiet ?until ?max_events t =
  let prev = t.tracing in
  t.tracing <- false;
  Fun.protect
    ~finally:(fun () -> t.tracing <- prev)
    (fun () -> run ?until ?max_events t)
