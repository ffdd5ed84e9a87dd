type record = { seq : int; appended_at : int; data : string; torn : bool }
type snapshot = { upto : int; taken_at : int; payload : string Lazy.t }

type stats = {
  appends : int;
  fsyncs : int;
  io_errors : int;
  torn_records : int;
  lost_records : int;
  sync_lost_records : int;
  snapshots_taken : int;
  compacted_records : int;
  bytes_appended : int;
  stalled_time : int;
}

type t = {
  engine : Dsim.Engine.t;
  pid : int;
  policy : unit -> Policy.t;
  mutable next_seq : int;
  mutable durable : record list; (* newest first *)
  mutable unsynced : record list; (* newest first; buffered, not yet fsynced *)
  mutable syncing : record list; (* handed to an in-flight (stalled) fsync *)
  mutable snaps : snapshot list; (* newest first *)
  mutable epoch : int; (* bumped on crash; invalidates in-flight fsyncs *)
  mutable s_appends : int;
  mutable s_fsyncs : int;
  mutable s_io_errors : int;
  mutable s_torn : int;
  mutable s_lost : int;
  mutable s_sync_lost : int;
  mutable s_snaps : int;
  mutable s_compacted : int;
  mutable s_bytes : int;
  mutable s_stalled : int;
}

let create ~engine ~pid ?(policy = fun () -> Policy.none) () =
  {
    engine;
    pid;
    policy;
    next_seq = 0;
    durable = [];
    unsynced = [];
    syncing = [];
    snaps = [];
    epoch = 0;
    s_appends = 0;
    s_fsyncs = 0;
    s_io_errors = 0;
    s_torn = 0;
    s_lost = 0;
    s_sync_lost = 0;
    s_snaps = 0;
    s_compacted = 0;
    s_bytes = 0;
    s_stalled = 0;
  }

let pid t = t.pid
let epoch t = t.epoch
let now t = Dsim.Engine.now t.engine

let io_erroring t = Policy.io_erroring (t.policy ()) ~pid:t.pid ~now:(now t)

let append t data =
  if io_erroring t then begin
    t.s_io_errors <- t.s_io_errors + 1;
    Error `Io_error
  end
  else begin
    let torn = Policy.torn_write (t.policy ()) ~pid:t.pid ~now:(now t) in
    let r = { seq = t.next_seq; appended_at = now t; data; torn } in
    t.next_seq <- t.next_seq + 1;
    t.unsynced <- r :: t.unsynced;
    t.s_appends <- t.s_appends + 1;
    t.s_bytes <- t.s_bytes + String.length data;
    if torn then t.s_torn <- t.s_torn + 1;
    Ok r.seq
  end

(* Commit [batch] to the durable region, unless the disk crashed since
   the fsync was issued (epoch mismatch). *)
let commit_batch t ~epoch batch k =
  if t.epoch = epoch then begin
    t.syncing <- List.filter (fun r -> not (List.memq r batch)) t.syncing;
    t.durable <- batch @ t.durable;
    k ()
  end

let fsync t ~k =
  if io_erroring t then begin
    t.s_io_errors <- t.s_io_errors + 1;
    Error `Io_error
  end
  else begin
    t.s_fsyncs <- t.s_fsyncs + 1;
    let batch = t.unsynced in
    t.unsynced <- [];
    let pol = t.policy () in
    if Policy.sync_lost pol ~pid:t.pid ~now:(now t) then begin
      (* The firmware lies: report success, drop the batch. *)
      t.s_sync_lost <- t.s_sync_lost + List.length batch;
      k ();
      Ok ()
    end
    else begin
      let extra = Policy.stall_of pol ~pid:t.pid ~now:(now t) in
      if extra = 0 then begin
        t.durable <- batch @ t.durable;
        k ();
        Ok ()
      end
      else begin
        t.s_stalled <- t.s_stalled + extra;
        t.syncing <- batch @ t.syncing;
        let epoch = t.epoch in
        Dsim.Engine.schedule t.engine ~delay:extra (fun () ->
            commit_batch t ~epoch batch k);
        Ok ()
      end
    end
  end

let crash t =
  let lost = List.length t.unsynced + List.length t.syncing in
  t.s_lost <- t.s_lost + lost;
  t.unsynced <- [];
  t.syncing <- [];
  t.epoch <- t.epoch + 1

let records t = List.sort (fun a b -> compare a.seq b.seq) t.durable

(* Replay stops at the first torn record: a torn write corrupts the WAL
   from that point on, so everything at or after it is unreadable. *)
let read_back t =
  let rec take = function
    | r :: rest when not r.torn -> r :: take rest
    | _ -> []
  in
  take (records t)

let unsynced_count t = List.length t.unsynced + List.length t.syncing

let save_snapshot t ~upto payload ~k =
  if io_erroring t then begin
    t.s_io_errors <- t.s_io_errors + 1;
    Error `Io_error
  end
  else begin
    let snap = { upto; taken_at = now t; payload } in
    let install () =
      t.snaps <- snap :: t.snaps;
      t.s_snaps <- t.s_snaps + 1;
      k ()
    in
    (* Snapshots are written to a side file and atomically renamed into
       place, so they are not subject to torn writes or sync-lies; a
       crash before the rename simply drops the snapshot. *)
    let extra = Policy.stall_of (t.policy ()) ~pid:t.pid ~now:(now t) in
    if extra = 0 then install ()
    else begin
      t.s_stalled <- t.s_stalled + extra;
      let epoch = t.epoch in
      Dsim.Engine.schedule t.engine ~delay:extra (fun () ->
          if t.epoch = epoch then install ());
    end;
    Ok ()
  end

let snapshots t = List.rev t.snaps
let latest_snapshot t = match t.snaps with [] -> None | s :: _ -> Some s

let compact t ~upto_seq =
  let keep, drop = List.partition (fun r -> r.seq > upto_seq) t.durable in
  t.durable <- keep;
  t.s_compacted <- t.s_compacted + List.length drop

let stats t =
  {
    appends = t.s_appends;
    fsyncs = t.s_fsyncs;
    io_errors = t.s_io_errors;
    torn_records = t.s_torn;
    lost_records = t.s_lost;
    sync_lost_records = t.s_sync_lost;
    snapshots_taken = t.s_snaps;
    compacted_records = t.s_compacted;
    bytes_appended = t.s_bytes;
    stalled_time = t.s_stalled;
  }

let pp_record ppf r =
  Fmt.pf ppf "#%d @%d %s%s" r.seq r.appended_at
    (if r.torn then "[torn] " else "")
    r.data

let pp_snapshot ppf s =
  Fmt.pf ppf "snapshot upto=%d @%d (%d bytes)" s.upto s.taken_at
    (String.length (Lazy.force s.payload))

let pp_stats ppf s =
  Fmt.pf ppf
    "appends=%d fsyncs=%d io-errors=%d torn=%d lost=%d sync-lost=%d \
     snapshots=%d compacted=%d bytes=%d stalled=%d"
    s.appends s.fsyncs s.io_errors s.torn_records s.lost_records
    s.sync_lost_records s.snapshots_taken s.compacted_records s.bytes_appended
    s.stalled_time
