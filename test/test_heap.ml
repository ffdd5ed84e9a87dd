(* Tests for the event-queue binary heap. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let pop_all heap =
  let rec go acc =
    match Dsim.Heap.pop heap with
    | None -> List.rev acc
    | Some (key, v) -> go ((key, v) :: acc)
  in
  go []

let empty_heap () =
  let h = Dsim.Heap.create () in
  check Alcotest.bool "is_empty" true (Dsim.Heap.is_empty h);
  check Alcotest.int "length" 0 (Dsim.Heap.length h);
  check Alcotest.bool "pop None" true (Dsim.Heap.pop h = None);
  check Alcotest.bool "peek None" true (Dsim.Heap.peek_key h = None)

let ordering () =
  let h = Dsim.Heap.create () in
  List.iter (fun k -> Dsim.Heap.add h ~key:k k) [ 5; 1; 4; 1; 3; 9; 0 ];
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "sorted ascending"
    [ (0, 0); (1, 1); (1, 1); (3, 3); (4, 4); (5, 5); (9, 9) ]
    (pop_all h)

let fifo_on_ties () =
  let h = Dsim.Heap.create () in
  List.iteri (fun i label -> Dsim.Heap.add h ~key:(i mod 2) label)
    [ 10; 11; 12; 13; 14 ];
  (* keys: 10:0 11:1 12:0 13:1 14:0 — ties must pop in insertion order *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "insertion order within equal keys"
    [ (0, 10); (0, 12); (0, 14); (1, 11); (1, 13) ]
    (pop_all h)

let peek_does_not_remove () =
  let h = Dsim.Heap.create () in
  Dsim.Heap.add h ~key:3 0;
  Dsim.Heap.add h ~key:1 1;
  check (Alcotest.option Alcotest.int) "peek min" (Some 1) (Dsim.Heap.peek_key h);
  check Alcotest.int "length unchanged" 2 (Dsim.Heap.length h)

let interleaved () =
  let h = Dsim.Heap.create () in
  Dsim.Heap.add h ~key:10 3;
  Dsim.Heap.add h ~key:1 1;
  check Alcotest.bool "pop early" true (Dsim.Heap.pop h = Some (1, 1));
  Dsim.Heap.add h ~key:5 2;
  check Alcotest.bool "pop mid" true (Dsim.Heap.pop h = Some (5, 2));
  check Alcotest.bool "pop late" true (Dsim.Heap.pop h = Some (10, 3));
  check Alcotest.bool "empty again" true (Dsim.Heap.is_empty h)

let clear () =
  let h = Dsim.Heap.create () in
  for i = 1 to 100 do
    Dsim.Heap.add h ~key:i i
  done;
  Dsim.Heap.clear h;
  check Alcotest.bool "cleared" true (Dsim.Heap.is_empty h);
  Dsim.Heap.add h ~key:1 7;
  check Alcotest.bool "usable after clear" true (Dsim.Heap.pop h = Some (1, 7))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains keys in sorted order" ~count:300
    QCheck.(list small_int)
    (fun keys ->
      let h = Dsim.Heap.create () in
      List.iter (fun k -> Dsim.Heap.add h ~key:k 0) keys;
      let drained = List.map fst (pop_all h) in
      drained = List.sort compare keys)

let prop_heap_stable_sort =
  (* Stronger than sortedness: payloads record insertion order, so this
     checks the insertion-order tie-break (the engine's FIFO guarantee
     for same-time events), not just nondecreasing keys. *)
  QCheck.Test.make ~name:"pop is a stable sort of (key, insertion index)"
    ~count:300
    QCheck.(list small_int)
    (fun keys ->
      let h = Dsim.Heap.create () in
      List.iteri (fun i k -> Dsim.Heap.add h ~key:k i) keys;
      let expected =
        List.stable_sort
          (fun (k1, _) (k2, _) -> compare k1 k2)
          (List.mapi (fun i k -> (k, i)) keys)
      in
      pop_all h = expected)

let clear_then_reuse () =
  (* clear retains the backing array for reuse but must reset the
     tie-break sequence, so a reused heap pops exactly like a fresh
     one — including insertion order on equal keys. *)
  let inserts = [ (3, 20); (1, 21); (3, 22); (0, 23); (1, 24) ] in
  let fresh = Dsim.Heap.create () in
  List.iter (fun (k, v) -> Dsim.Heap.add fresh ~key:k v) inserts;
  let reused = Dsim.Heap.create () in
  for i = 1 to 64 do
    Dsim.Heap.add reused ~key:i i
  done;
  Dsim.Heap.clear reused;
  List.iter (fun (k, v) -> Dsim.Heap.add reused ~key:k v) inserts;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "reused heap pops like a fresh one" (pop_all fresh) (pop_all reused)

let prop_heap_length =
  QCheck.Test.make ~name:"length tracks adds and pops" ~count:300
    QCheck.(list small_int)
    (fun keys ->
      let h = Dsim.Heap.create () in
      List.iteri (fun i k -> Dsim.Heap.add h ~key:k i) keys;
      let n = List.length keys in
      let ok = ref (Dsim.Heap.length h = n) in
      for expected = n - 1 downto 0 do
        ignore (Dsim.Heap.pop h : (int * int) option);
        if Dsim.Heap.length h <> expected then ok := false
      done;
      !ok)

(* --- Heap against a sorted (key, seq) list model ------------------------ *)

(* One random op per generated item.  Keys come from a small range so
   tie sets are common, and adds may land below the current minimum:
   the heap, unlike the engine, does not need monotone keys.  A [Tied]
   answer runs one past either end of the tied range so the
   out-of-range rejection is exercised too. *)
type heap_op =
  | Add of int * int
  | Pop
  | Pop_value
  | Peek
  | Tied of int
  | Clear

let gen_heap_ops =
  QCheck.Gen.(
    list_size (int_range 1 150)
      (int_range 0 99 >>= fun sel ->
       if sel < 50 then
         map2 (fun k v -> Add (k, v)) (int_range 0 6) small_nat
       else if sel < 62 then return Pop
       else if sel < 72 then return Pop_value
       else if sel < 78 then return Peek
       else if sel < 97 then map (fun i -> Tied i) (int_range (-1) 4)
       else return Clear))

let arb_heap_ops =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
    gen_heap_ops

(* The model: (key, seq, value) triples sorted by (key, seq), plus the
   next seq to assign.  The tied range is the model's prefix sharing
   the head's key. *)
let model_ties m =
  match m with
  | [] -> []
  | (k, _, _) :: _ -> List.filter (fun (k', _, _) -> k' = k) m

let prop_heap_matches_model =
  QCheck.Test.make ~name:"heap agrees with a sorted (key, seq) list model"
    ~count:500 arb_heap_ops (fun ops ->
      let h = Dsim.Heap.create () in
      let m = ref [] and next_seq = ref 0 in
      let ok = ref true in
      let agree a b = if a <> b then ok := false in
      let remove_nth n =
        let tie = List.nth (model_ties !m) n in
        m := List.filter (fun e -> e != tie) !m;
        let k, _, v = tie in
        (k, v)
      in
      List.iter
        (fun op ->
          match op with
          | Add (k, v) ->
              Dsim.Heap.add h ~key:k v;
              m := List.merge compare !m [ (k, !next_seq, v) ];
              agree (Dsim.Heap.last_seq h) !next_seq;
              incr next_seq
          | Pop ->
              agree (Dsim.Heap.pop h)
                (if !m = [] then None else Some (remove_nth 0))
          | Pop_value ->
              if !m <> [] then begin
                agree (Dsim.Heap.peek_key_fast h)
                  (let k, _, _ = List.hd !m in
                   k);
                agree (Dsim.Heap.pop_value h) (snd (remove_nth 0))
              end
          | Peek ->
              agree (Dsim.Heap.peek_key h)
                (match !m with [] -> None | (k, _, _) :: _ -> Some k)
          | Tied i ->
              (* The chooser must see the model's tie set in seq order;
                 an out-of-range answer must raise the documented
                 message and leave the heap as it was. *)
              let ties = model_ties !m in
              let count = List.length ties in
              let consulted = ref false in
              let choose ~seqs ~vals =
                consulted := true;
                agree (Array.to_list seqs) (List.map (fun (_, s, _) -> s) ties);
                agree (Array.to_list vals) (List.map (fun (_, _, v) -> v) ties);
                i
              in
              if count = 0 then agree (Dsim.Heap.pop_tied h choose) None
              else if i < 0 || i >= count then begin
                match Dsim.Heap.pop_tied h choose with
                | _ -> ok := false
                | exception Invalid_argument msg ->
                    agree msg "Heap.pop_tied: index out of tied range"
              end
              else agree (Dsim.Heap.pop_tied h choose) (Some (remove_nth i));
              agree !consulted (count > 0)
          | Clear ->
              Dsim.Heap.clear h;
              m := [];
              next_seq := 0;
              agree (Dsim.Heap.last_seq h) (-1))
        ops;
      agree (Dsim.Heap.length h) (List.length !m);
      agree (pop_all h) (List.map (fun (k, _, v) -> (k, v)) !m);
      !ok)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick empty_heap;
    Alcotest.test_case "ordering" `Quick ordering;
    Alcotest.test_case "FIFO on ties" `Quick fifo_on_ties;
    Alcotest.test_case "peek does not remove" `Quick peek_does_not_remove;
    Alcotest.test_case "interleaved add/pop" `Quick interleaved;
    Alcotest.test_case "clear" `Quick clear;
    Alcotest.test_case "clear then reuse" `Quick clear_then_reuse;
    qtest prop_heap_sorts;
    qtest prop_heap_stable_sort;
    qtest prop_heap_length;
    qtest prop_heap_matches_model;
  ]
