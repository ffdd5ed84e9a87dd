type 'cmd entry = { cid : int; op : 'cmd }

type 'cmd replica = {
  pending : 'cmd entry Pending.t;  (* cid -> entry, not yet ordered *)
  delivered : Delivered.t;
  mutable next_slot : int;
  mutable delivered_count : int;
}

type recovery = { next_slot : int; delivered_cids : int list }

type 'cmd t = {
  engine : Dsim.Engine.t;
  net : 'cmd entry Netsim.Async_net.t;
  log : 'cmd entry Log.t;
  batch : int;
  deliver : pid:int -> slot:int -> 'cmd entry -> unit;
  on_slot_applied : pid:int -> slot:int -> fresh:'cmd entry list -> unit;
  on_install :
    pid:int ->
    owner:int ->
    upto:int ->
    state:string Lazy.t ->
    cids:int list Lazy.t ->
    unit;
  replicas : 'cmd replica array;
  processes : Dsim.Engine.pid array;
  delivered_any : (int, unit) Hashtbl.t;
  mutable stopped : bool;
}

let receive t pid e =
  let r = t.replicas.(pid) in
  if not (Delivered.mem r.delivered e.cid) then Pending.add r.pending e.cid e

let floor_ready t (r : _ replica) =
  match Log.floor t.log with
  | Some f when f.Log.upto >= r.next_slot -> Some f
  | _ -> None

(* State transfer: the replica is behind the advertised snapshot floor
   (the donor may have compacted the slots it would need to replay), so
   it adopts the donor's state wholesale instead of going slot by slot. *)
let install_floor t pid (r : _ replica) (f : Log.floor) =
  let cids = Lazy.force f.Log.cids in
  Delivered.reset r.delivered cids;
  List.iter
    (fun cid ->
      Hashtbl.replace t.delivered_any cid ();
      Pending.remove r.pending cid)
    cids;
  r.delivered_count <- List.length cids;
  r.next_slot <- f.Log.upto + 1;
  t.on_install ~pid ~owner:f.Log.owner ~upto:f.Log.upto ~state:f.Log.state
    ~cids:f.Log.cids

(* Every input the replica's [await] predicates read — its pending set,
   the log's slots and floor, [stopped] — bumps one of these monotone
   counters when it changes ([next_slot] only moves while the replica
   runs), so an unchanged sum means the predicate would answer [None]
   again and it is not re-evaluated. *)
let gated_await t r poll =
  let seen = ref (-1) in
  Dsim.Engine.await (fun () ->
      let v =
        Pending.version r.pending + Log.version t.log + Bool.to_int t.stopped
      in
      if v = !seen then None
      else begin
        seen := v;
        poll ()
      end)

let replica_loop t pid _ctx =
  let r = t.replicas.(pid) in
  let rec loop () =
    match floor_ready t r with
    | Some f ->
        install_floor t pid r f;
        loop ()
    | None -> (
        let verdict =
          gated_await t r (fun () ->
              if floor_ready t r <> None then Some `Go
              else if
                Pending.length r.pending > 0 || Log.opened t.log ~slot:r.next_slot
              then Some `Go
              else if t.stopped then Some `Exit
              else None)
        in
        match verdict with
        | `Exit -> ()
        | `Go when floor_ready t r <> None -> loop ()
        | `Go ->
            let slot = r.next_slot in
            Log.propose t.log ~slot ~pid
              ~batch:(Pending.take r.pending t.batch);
            let d = gated_await t r (fun () -> Log.decided t.log ~slot) in
            let fresh =
              List.filter
                (fun (e : _ entry) -> not (Delivered.mem r.delivered e.cid))
                d.Log.batch
            in
            List.iter
              (fun (e : _ entry) -> Pending.remove r.pending e.cid)
              d.Log.batch;
            List.iter
              (fun (e : _ entry) ->
                Delivered.add r.delivered e.cid;
                r.delivered_count <- r.delivered_count + 1;
                Hashtbl.replace t.delivered_any e.cid ();
                t.deliver ~pid ~slot e)
              fresh;
            r.next_slot <- slot + 1;
            t.on_slot_applied ~pid ~slot ~fresh;
            loop ())
  in
  loop ()

let create ~engine ~net ~log ~batch ~deliver
    ?(on_slot_applied = fun ~pid:_ ~slot:_ ~fresh:_ -> ())
    ?(on_install = fun ~pid:_ ~owner:_ ~upto:_ ~state:_ ~cids:_ -> ()) () =
  if batch < 1 then invalid_arg "Tob.create: batch must be >= 1";
  let n = Netsim.Async_net.n net in
  let t =
    {
      engine;
      net;
      log;
      batch;
      deliver;
      on_slot_applied;
      on_install;
      replicas =
        Array.init n (fun _ ->
            {
              pending = Pending.create ();
              delivered = Delivered.create ();
              next_slot = 0;
              delivered_count = 0;
            });
      processes = Array.make n (-1);
      delivered_any = Hashtbl.create 64;
      stopped = false;
    }
  in
  for pid = 0 to n - 1 do
    Netsim.Async_net.set_handler net pid (fun env ->
        receive t pid env.Netsim.Async_net.payload);
    t.processes.(pid) <-
      Dsim.Engine.spawn engine
        ~name:(Printf.sprintf "rsm-replica-%d" pid)
        (replica_loop t pid)
  done;
  t

let submit t ~replica e =
  if Netsim.Async_net.is_crashed t.net replica then false
  else begin
    receive t replica e;
    Netsim.Async_net.broadcast t.net ~src:replica e;
    true
  end

let process t pid = t.processes.(pid)

(* Under the in-memory (recoverable) model a crash leaves replica state
   intact; under the durable model the Runner calls this to lose what a
   real crash loses at the TOB layer: the undelivered pending set. *)
let crash t pid = Pending.clear t.replicas.(pid).pending

let restart t ?recovery pid =
  if not (Dsim.Engine.alive t.engine t.processes.(pid)) then begin
    (match recovery with
    | None -> ()
    | Some rc ->
        let r = t.replicas.(pid) in
        Delivered.reset r.delivered rc.delivered_cids;
        Pending.clear r.pending;
        List.iter
          (fun cid -> Hashtbl.replace t.delivered_any cid ())
          rc.delivered_cids;
        r.delivered_count <- List.length rc.delivered_cids;
        r.next_slot <- rc.next_slot);
    t.processes.(pid) <-
      Dsim.Engine.spawn t.engine
        ~name:(Printf.sprintf "rsm-replica-%d" pid)
        (replica_loop t pid)
  end

let delivered_count t ~pid = t.replicas.(pid).delivered_count

let capture_delivered t ~pid = Delivered.capture t.replicas.(pid).delivered

let next_slot t ~pid = t.replicas.(pid).next_slot
let is_delivered t ~cid = Hashtbl.mem t.delivered_any cid
let pending_count t ~pid = Pending.length t.replicas.(pid).pending
let stop t = t.stopped <- true
