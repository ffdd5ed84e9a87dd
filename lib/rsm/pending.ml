type 'a t = {
  table : (int, 'a) Hashtbl.t;
  order : Dsim.Heap.t;
      (* the table's cids as a min-heap (key = value = cid), lazily
         deleted: every cid of [table] is in it, but it may also hold
         cids since removed and duplicates of re-added ones *)
  mutable version : int;
}

let create () =
  { table = Hashtbl.create 32; order = Dsim.Heap.create (); version = 0 }

let length t = Hashtbl.length t.table
let version t = t.version

let add t cid v =
  if not (Hashtbl.mem t.table cid) then begin
    Dsim.Heap.add t.order ~key:cid cid;
    t.version <- t.version + 1
  end;
  Hashtbl.replace t.table cid v

let remove t cid =
  Hashtbl.remove t.table cid;
  t.version <- t.version + 1

let clear t =
  Hashtbl.reset t.table;
  Dsim.Heap.clear t.order;
  t.version <- t.version + 1

(* Stale and duplicate heap entries surface in cid order like live ones,
   so they are dropped as they are popped; the live cids taken go back
   in, since they stay until a [remove].  When the heap outgrows twice
   the table it is rebuilt, which bounds it by O(length) at amortized
   O(log n) per [remove]. *)
let take t k =
  let h = t.order in
  if Dsim.Heap.length h > (2 * Hashtbl.length t.table) + 32 then begin
    Dsim.Heap.clear h;
    Hashtbl.iter (fun cid _ -> Dsim.Heap.add h ~key:cid cid) t.table
  end;
  let rec pop k acc =
    if k = 0 || Dsim.Heap.is_empty h then acc
    else
      let cid = Dsim.Heap.pop_value h in
      match acc with
      | (last, _) :: _ when last = cid -> pop k acc
      | _ -> (
          match Hashtbl.find_opt t.table cid with
          | Some v -> pop (k - 1) ((cid, v) :: acc)
          | None -> pop k acc)
  in
  let taken = pop k [] in
  List.iter (fun (cid, _) -> Dsim.Heap.add h ~key:cid cid) taken;
  List.rev_map snd taken
