(* Cids are appended into fixed-size chunks.  A full chunk is frozen
   (never written again) and pushed on [frozen]; only [tail], the chunk
   being filled, is ever written, and it is never handed out.  So a
   capture is the [frozen] list as it is plus a copy of at most [chunk]
   tail cids — O(1) — at about one word per cid rather than a list
   cell's three. *)

let chunk = 64

type t = {
  table : (int, unit) Hashtbl.t;
  mutable frozen : int array list;  (* full chunks, newest first *)
  tail : int array;
  mutable fill : int;  (* cids in [tail] *)
}

let create () =
  { table = Hashtbl.create 64; frozen = []; tail = Array.make chunk 0; fill = 0 }

let mem t cid = Hashtbl.mem t.table cid

let add t cid =
  if not (Hashtbl.mem t.table cid) then begin
    Hashtbl.replace t.table cid ();
    if t.fill = chunk then begin
      t.frozen <- Array.copy t.tail :: t.frozen;
      t.fill <- 0
    end;
    t.tail.(t.fill) <- cid;
    t.fill <- t.fill + 1
  end

let reset t cids =
  Hashtbl.reset t.table;
  List.iter (fun cid -> Hashtbl.replace t.table cid ()) cids;
  t.frozen <- [ Array.of_list cids ];
  t.fill <- 0

(* [sort_uniq] keeps the result a set even if [reset] was handed
   duplicates. *)
let capture t =
  let parts = Array.sub t.tail 0 t.fill :: t.frozen in
  lazy (List.sort_uniq compare (List.concat_map Array.to_list parts))
