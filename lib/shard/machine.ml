type tx_status = Prepared | Committed | Aborted

type tx_entry = {
  status : tx_status;
  buffered : Cmd.wop list;  (* this shard's slice, held while Prepared *)
}

type output =
  | O_kv of Obj.Kv.resp
  | O_vote of bool
  | O_decided of bool
  | O_outcome of bool

module Smap = Map.Make (String)
module Imap = Map.Make (Int)

(* The tables are persistent maps in mutable fields: [apply] replaces a
   field, it never changes a map in place, so a record holding today's
   maps still holds them after any later [apply] (see [snapshot]). *)
type t = {
  shard : int;
  mutable kv : string Smap.t;
  mutable txs : tx_entry Imap.t;
  mutable locks : int Smap.t;  (* key -> holding txid *)
}

let create ~shard =
  { shard; kv = Smap.empty; txs = Imap.empty; locks = Smap.empty }

let shard t = t.shard
let lookup t k = Smap.find_opt k t.kv
let locked_keys t = Smap.cardinal t.locks

let tx_status t txid =
  Option.map (fun e -> e.status) (Imap.find_opt txid t.txs)

let set_kv t k v = t.kv <- Smap.add k v t.kv

let apply_kv t (c : Obj.Kv.op) : Obj.Kv.resp =
  match c with
  | Get k -> Got (lookup t k)
  | Set (k, v) ->
      set_kv t k v;
      Done
  | Cas { key; expect; update } ->
      if lookup t key = expect then begin
        set_kv t key update;
        Cas_result true
      end
      else Cas_result false

let apply_wop t = function
  | Cmd.W_set (k, v) -> set_kv t k v
  | Cmd.W_add (k, d) ->
      let cur =
        match lookup t k with
        | Some v -> ( try int_of_string v with _ -> 0)
        | None -> 0
      in
      set_kv t k (string_of_int (cur + d))

let my_slice t (tx : Cmd.tx) =
  match List.assoc_opt t.shard tx.ops with Some w -> w | None -> []

let unlock t txid wops =
  List.iter
    (fun w ->
      let k = Cmd.wop_key w in
      match Smap.find_opt k t.locks with
      | Some holder when holder = txid -> t.locks <- Smap.remove k t.locks
      | _ -> ())
    wops

(* Settled entries carry no ops, so every replica shares these two. *)
let committed = { status = Committed; buffered = [] }
let aborted = { status = Aborted; buffered = [] }
let settled commit = if commit then committed else aborted
let set_tx t txid e = t.txs <- Imap.add txid e t.txs

(* Resolve a Prepared transaction with the given decision; the fenced
   paths (no buffered prepare) are handled by the callers. *)
let settle t txid entry commit =
  if commit then List.iter (apply_wop t) entry.buffered;
  unlock t txid entry.buffered;
  set_tx t txid (settled commit)

let apply_prepare t (tx : Cmd.tx) =
  match Imap.find_opt tx.txid t.txs with
  | Some { status = Prepared; _ } -> O_vote true
  | Some { status = Committed; _ } | Some { status = Aborted; _ } ->
      (* fenced: the decision beat the prepare here; too late to lock *)
      O_vote false
  | None ->
      let slice = my_slice t tx in
      let keys = List.sort_uniq compare (List.map Cmd.wop_key slice) in
      let conflict =
        List.exists
          (fun k ->
            match Smap.find_opt k t.locks with
            | Some holder -> holder <> tx.txid
            | None -> false)
          keys
      in
      if conflict || slice = [] then begin
        (* vote no (a prepare with no local ops is malformed routing) *)
        set_tx t tx.txid aborted;
        O_vote false
      end
      else begin
        List.iter (fun k -> t.locks <- Smap.add k tx.txid t.locks) keys;
        set_tx t tx.txid { status = Prepared; buffered = slice };
        O_vote true
      end

let apply_decision t txid commit mk =
  match Imap.find_opt txid t.txs with
  | Some ({ status = Prepared; _ } as e) ->
      settle t txid e commit;
      mk commit
  | Some { status = Committed; _ } -> mk true
  | Some { status = Aborted; _ } -> mk false
  | None ->
      (* fence: remember the decision so a late prepare votes no *)
      set_tx t txid (settled commit);
      mk commit

let apply t (c : Cmd.t) =
  match c with
  | Kv kc -> O_kv (apply_kv t kc)
  | Prepare tx -> apply_prepare t tx
  | Decide { txid; commit } -> apply_decision t txid commit (fun c -> O_decided c)
  | Outcome { txid; commit } ->
      apply_decision t txid commit (fun c -> O_outcome c)

(* {2 Serialization} — single line, counted tokens, %S-quoted strings
   (same discipline as {!Cmd}'s codec); everything emitted in key order
   (the maps' own) so replicas in equal states produce byte-equal
   strings. *)

let status_char = function Prepared -> 'P' | Committed -> 'C' | Aborted -> 'A'

let status_of_char = function
  | 'P' -> Prepared
  | 'C' -> Committed
  | 'A' -> Aborted
  | c -> invalid_arg (Printf.sprintf "Machine.restore: bad status %c" c)

let serialize t =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int t.shard);
  Buffer.add_string b (Printf.sprintf " %d" (Smap.cardinal t.kv));
  Smap.iter (fun k v -> Buffer.add_string b (Printf.sprintf " %S %S" k v)) t.kv;
  Buffer.add_string b (Printf.sprintf " %d" (Imap.cardinal t.txs));
  Imap.iter
    (fun id e ->
      Buffer.add_string b
        (Printf.sprintf " %d %c %d" id (status_char e.status)
           (List.length e.buffered));
      List.iter
        (fun w ->
          Buffer.add_char b ' ';
          Buffer.add_string b (Cmd.wop_to_string w))
        e.buffered)
    t.txs;
  Buffer.contents b

let digest = serialize

(* The copy holds the maps as they are now; [apply] on [t] replaces
   [t]'s fields and leaves the copy's alone, so forcing later still
   encodes this instant. *)
let snapshot t =
  let frozen = { t with kv = t.kv } in
  lazy (serialize frozen)

let restore s =
  let ib = Scanf.Scanning.from_string s in
  let int () = Scanf.bscanf ib " %d" Fun.id in
  let str () = Scanf.bscanf ib " %S" Fun.id in
  let shard = int () in
  let t = create ~shard in
  let nkv = int () in
  for _ = 1 to nkv do
    let k = str () in
    let v = str () in
    set_kv t k v
  done;
  let ntx = int () in
  for _ = 1 to ntx do
    let id = int () in
    let st = Scanf.bscanf ib " %c" status_of_char in
    let nw = int () in
    let buffered =
      List.init nw (fun _ ->
          Scanf.bscanf ib " %c" (fun tag ->
              match tag with
              | 'S' -> Scanf.bscanf ib " %S %S" (fun k v -> Cmd.W_set (k, v))
              | 'A' -> Scanf.bscanf ib " %S %d" (fun k d -> Cmd.W_add (k, d))
              | c ->
                  invalid_arg
                    (Printf.sprintf "Machine.restore: bad wop tag %c" c)))
    in
    set_tx t id { status = st; buffered };
    if st = Prepared then
      List.iter
        (fun w -> t.locks <- Smap.add (Cmd.wop_key w) id t.locks)
        buffered
  done;
  t

let pp_output ppf = function
  | O_kv _ -> Format.fprintf ppf "kv"
  | O_vote v -> Format.fprintf ppf "vote:%b" v
  | O_decided c -> Format.fprintf ppf "decided:%s" (if c then "commit" else "abort")
  | O_outcome c -> Format.fprintf ppf "outcome:%s" (if c then "commit" else "abort")
